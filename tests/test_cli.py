import json
import shlex
import time
from pathlib import Path

import pytest

from homdom import cli, errors, hde
from homdom.checks import (
    SAMPLE_BUDGET, CheckReport, Scope, check_blakley_roy, path_form, prove_path_identity,
)
from homdom.cli import main
from homdom.graphs import from_edges, serialize_graph
from conftest import _psi_parts, objective_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


def test_hde_flagship(capsys):
    code, doc = run_json(
        capsys, "hde", "--f1", "union:2*path:0+1*path:3", "--f2", "path:1"
    )
    assert code == 0
    assert doc["result"]["hde"] == "3/1"
    assert doc["result"]["witness_p"]["{}"] == "0/1"
    assert doc["result"]["witness_p"]["{0,1}"] == "1/1"
    assert doc["config"]["subcommand"] == "hde"
    assert set(doc["result"]["lp"]) == {"vars", "constraints", "pivots"}


def test_hde_past_the_reach_of_map_enumeration(capsys):
    # P40 has about 8.7e8 maps into P3; the exponent reads its profiles
    # off the clique tree instead
    code, out, err = run_cli(
        capsys, "hde", "--f1", "union:2*path:0+1*path:40", "--f2", "path:3"
    )
    assert code == 0, err
    assert '"hde": "3/1"' in out


def test_hde_trivial_and_gate(capsys):
    code, doc = run_json(capsys, "hde", "--f1", "path:1", "--f2", "path:1")
    assert code == 0 and doc["result"]["hde"] == "1/1"

    code, out, err = run_cli(capsys, "hde", "--f1", "cycle:4", "--f2", "path:2")
    assert code == 3 and "precondition" in err

    code, out, err = run_cli(capsys, "hde", "--f1", "path:2", "--f2", "nonsense")
    assert code == 2


def test_walks(capsys, tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    code, doc = run_json(capsys, "walks", "--graph", str(f), "--k", "3")
    assert code == 0
    assert doc["result"] == {"n": 3, "e": 2, "d": "4/3", "walks": "8", "w_k": "8/3"}

    code, doc = run_json(capsys, "walks", "--graph", str(f), "--k", "0")
    assert doc["result"]["walks"] == "3"

    code, doc = run_json(capsys, "walks", "--graph", str(f), "--k", "1")
    assert doc["result"]["w_k"] == doc["result"]["d"]

    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, out, err = run_cli(capsys, "walks", "--graph", str(bad), "--k", "1")
    assert code == 2


def test_verify_walk_inequality(capsys):
    code, doc = run_json(
        capsys, "verify", "--mode", "walk-inequality", "--t", "3", "--k", "5",
        "--exhaustive-n", "4",
    )
    assert code == 0 and doc["result"]["verdict"] == "holds"


def test_verify_counterexample(capsys):
    code, doc = run_json(
        capsys, "verify", "--mode", "counterexample", "--t", "2", "--k", "3",
        "--exhaustive-n", "3",
    )
    assert code == 0
    assert doc["result"]["verdict"] == "counterexample-found"
    # witness is a relabeled 3-vertex path
    assert doc["result"]["witnesses"][0]["graph"].startswith("3 2\n")


def test_verify_chain(capsys):
    code, doc = run_json(capsys, "verify", "--mode", "chain", "--t", "3", "--k", "9")
    assert code == 0 and doc["result"]["product"] == "3/1"
    # t = k needs no link
    code, doc = run_json(capsys, "verify", "--mode", "chain", "--t", "5", "--k", "5")
    assert code == 0 and doc["result"] == {"product": "1/1", "verdict": "holds"}


def test_verify_chain_rejects_a_broken_proof(capsys, monkeypatch):
    # the walks' form with one term dropped gives "violated"
    monkeypatch.setattr(cli, "walk_form", lambda t, k: hde.walk_form(t, k)[1:])
    for t, k, product in ((3, 9, "3/1"), (1, 61, "61/1"), (59, 61, "61/59")):
        code, doc = run_json(capsys, "verify", "--mode", "chain", "--t", str(t), "--k", str(k))
        assert code == 1 and doc["result"] == {"product": product, "verdict": "violated"}, (t, k)


def test_verify_chain_refuses_a_link_past_the_vertex_cap(capsys, monkeypatch):
    # the last link maps P_k: k = 63 is refused before any link is proved
    monkeypatch.setattr(cli, "prove_path_identity", _must_not_run)
    for t, k in ((1, 63), (61, 63), (3, 65), (1, 10**12 + 1)):
        code, out, err = run_cli(capsys, "verify", "--mode", "chain", "--t", str(t),
                                 "--k", str(k))
        assert code == 2 and out == "" and "exceeds cap of 63" in err, (t, k)
    monkeypatch.undo()
    code, doc = run_json(capsys, "verify", "--mode", "chain", "--t", "1", "--k", "61")
    assert code == 0 and doc["result"] == {"product": "61/1", "verdict": "holds"}


def test_verify_hde_definition_exit_codes(capsys):
    code, doc = run_json(
        capsys, "verify", "--mode", "hde-definition",
        "--f1", "union:2*path:0+1*path:3", "--f2", "path:1", "--c", "3",
        "--exhaustive-n", "3",
    )
    assert code == 0 and doc["result"]["verdict"] == "holds"

    code, doc = run_json(
        capsys, "verify", "--mode", "hde-definition",
        "--f1", "union:2*path:0+1*path:3", "--f2", "path:1", "--c", "31/10",
        "--exhaustive-n", "3",
    )
    assert code == 1 and doc["result"]["verdict"] == "violated"


def test_verify_blakley_roy_and_lemma(capsys):
    code, doc = run_json(
        capsys, "verify", "--mode", "blakley-roy", "--k", "4", "--exhaustive-n", "4"
    )
    assert code == 0 and doc["result"]["verdict"] == "holds"

    code, doc = run_json(
        capsys, "verify", "--mode", "lemma-identity", "--t", "2"
    )
    assert code == 0 and doc["result"]["verdict"] == "holds"


def test_certificate(capsys):
    code, doc = run_json(capsys, "certificate", "--t", "1")
    assert code == 0
    assert doc["result"]["upper"] == "3/1"
    assert doc["result"]["lower"] == "3/1"

    code, out, err = run_cli(capsys, "certificate", "--t", "2")
    assert code == 2


def test_dump_polytope(capsys):
    code, out, err = run_cli(capsys, "dump-polytope", "--f2", "path:1")
    assert code == 0
    assert out.splitlines()[0] == "normalization: 1/1*p[{}] = 0/1"
    assert len(out.splitlines()) == 5


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required --mode
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, "verify", "--mode", "chain", "--t", "3")
    assert code == 2  # missing --k


def test_json_reproducibility(capsys, tmp_path):
    argv = ["hde", "--f1", "union:2*path:0+1*path:3", "--f2", "path:1"]
    _, doc1 = run_json(capsys, *argv)
    _, doc2 = run_json(capsys, *argv)
    for doc in (doc1, doc2):
        doc.pop("timestamp")
        doc.pop("elapsed_s")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, out, err = run_cli(
        capsys, "verify", "--mode", "chain", "--t", "1", "--k", "5",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["product"] == "5/1"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--exhaustive-n", "0"],
        ["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1",
         "--c", "1", "--exhaustive-n", "0"],
        ["verify", "--mode", "lemma-identity", "--t", "2", "--samples", "0"],
        ["verify", "--mode", "blakley-roy", "--k", "2", "--samples", "-1", "--n", "3"],
    ],
)
def test_empty_scopes_are_usage_errors(capsys, argv):
    # a verdict over zero graphs or certificates would be vacuous
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode_args",
    [["--mode", "counterexample", "--t", "2", "--k", "3"], ["--mode", "blakley-roy", "--k", "2"]],
    ids=["counterexample", "blakley-roy"],
)
def test_empty_scope_from_a_check_is_a_usage_error(capsys, monkeypatch, mode_args):
    # the library refuses a scope with no graphs; the CLI reports it as bad input
    monkeypatch.setattr(cli, "_verify_scope", lambda args: cli.Scope.graphs([]))
    code, out, err = run_cli(capsys, "verify", *mode_args, "--samples", "1", "--n", "3")
    assert code == 2 and out == ""
    assert "at least one graph" in err


# every case carries its own id, so a case put anywhere leaves the other
# ids as they are; these ids are the positional ones the cases first had
@pytest.mark.parametrize(
    "argv, message",
    [
        # BadIndex
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "5", "--k", "3", "--exhaustive-n", "3"],
            "need 1 <= t <= k", id="argv0-need 1 <= t <= k"),
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "0", "--k", "3", "--exhaustive-n", "3"],
            "need 1 <= t <= k", id="argv1-need 1 <= t <= k"),
        # EmptyGraph
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
             "--n", "0"],
            "at least one vertex", id="argv2-at least one vertex"),
        # GraphTooLarge
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
             "--n", "64"],
            "exceeds cap of 63", id="argv3-exceeds cap of 63"),
        pytest.param(
            ["hde", "--f1", "union:70*path:0", "--f2", "path:1"],
            "exceeds cap of 63", id="argv4-exceeds cap of 63"),
        # BadIndex: at t = 0 the identity would read p(V) = 0
        pytest.param(
            ["verify", "--mode", "lemma-identity", "--t", "0"],
            "needs t >= 1", id="argv5-needs t >= 1"),
        # MalformedInput from Scope.random
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
             "--n", "5", "--edge-prob", "3/2"],
            "edge probability must be in [0, 1]", id="argv6-edge probability must be in [0, 1]"),
        # a leading minus must not make argparse read the value as an option
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
             "--n", "5", "--edge-prob", "-1/2"],
            "edge probability must be in [0, 1]", id="argv7-edge probability must be in [0, 1]"),
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
             "--n", "5", "--edge-prob=-1/2"],
            "edge probability must be in [0, 1]", id="argv8-edge probability must be in [0, 1]"),
        # BadIndex: a negative exponent would compare float powers of 0
        pytest.param(
            ["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1", "--c", "-1",
             "--exhaustive-n", "3"],
            "need c >= 0", id="argv9-need c >= 0"),
        pytest.param(
            ["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1", "--c=-1/2",
             "--exhaustive-n", "3"],
            "need c >= 0", id="argv10-need c >= 0"),
        pytest.param(
            ["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1",
             "--c", "-1/2", "--exhaustive-n", "3"],
            "need c >= 0", id="argv11-need c >= 0"),
        # BadIndex: at k = 0 Blakley-Roy compares 1 with 1 on every graph;
        # the message names --k, the one option given
        pytest.param(
            ["verify", "--mode", "blakley-roy", "--k", "0", "--exhaustive-n", "3"],
            "need --k >= 1, got 0", id="argv12-need --k >= 1, got 0"),
        # GroundTooLarge
        pytest.param(
            ["hde", "--f1", "path:1", "--f2", "path:21"],
            "exceeds cap 14", id="argv13-exceeds cap 14"),
        pytest.param(
            ["dump-polytope", "--f2", "path:21"],
            "exceeds cap 14", id="argv14-exceeds cap 14"),
        # MalformedInput: only ASCII digits are numbers in a graph spec
        pytest.param(
            ["hde", "--f1", "path:\u00b2", "--f2", "path:1"],
            "expected a number in graph spec", id="argv15-expected a number in graph spec"),
        pytest.param(
            ["hde", "--f1", "union:\u00b2*path:1", "--f2", "path:1"],
            "expected a number in graph spec", id="argv16-expected a number in graph spec"),
        pytest.param(
            ["hde", "--f1", "path:\u0663", "--f2", "path:1"],
            "expected a number in graph spec", id="argv17-expected a number in graph spec"),
        # EmptyGraph: the polytope of no vertices asks p(empty) = 0 and = 1
        pytest.param(
            ["hde", "--f1", "union:0*path:0", "--f2", "union:0*path:0"],
            "at least one vertex", id="argv18-at least one vertex"),
        pytest.param(
            ["dump-polytope", "--f2", "union:0*path:1"],
            "at least one vertex", id="argv19-at least one vertex"),
        # BadIndex: no verdict about walks of zero or negative length
        pytest.param(
            ["verify", "--mode", "chain", "--t", "-1", "--k", "3"],
            "need 1 <= t <= k", id="argv20-need 1 <= t <= k"),
        pytest.param(
            ["verify", "--mode", "counterexample", "--t", "0", "--k", "3", "--exhaustive-n", "3"],
            "need 1 <= t <= k", id="argv21-need 1 <= t <= k"),
        # EmptyGraph: refused before the source is enumerated into no vertices
        pytest.param(
            ["hde", "--f1", "path:1", "--f2", "union:0*path:0"],
            "at least one vertex", id="argv22-at least one vertex"),
        # MalformedInput: Fraction() would build 10^99999999 or print 10^5000
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "1", "--k", "3", "--samples", "1",
             "--n", "3", "--edge-prob", "1e99999999"],
            "exponent of '1e99999999' is past 18", id="argv23-exponent of '1e99999999' is past 18"),
        pytest.param(
            ["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1",
             "--c", "1e99999999", "--exhaustive-n", "2"],
            "exponent of '1e99999999' is past 18", id="argv24-exponent of '1e99999999' is past 18"),
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "1", "--k", "3", "--samples", "1",
             "--n", "3", "--edge-prob", "1e5000"],
            "exponent of '1e5000' is past 18", id="argv25-exponent of '1e5000' is past 18"),
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "1", "--k", "3", "--samples", "1",
             "--n", "3", "--edge-prob", "1/" + "3" * 10**6],
            "has 1000002 characters, more than 38",
            id="argv26-has 1000002 characters, more than 38"),
        # MalformedInput: a negative vertex count, refused as the scope is built
        pytest.param(
            ["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "2",
             "--n", "-3"],
            "vertex count must be non-negative", id="argv27-vertex count must be non-negative"),
        # EmptyGraph: a graph with no vertices is refused as the scope is
        # built, in every mode that reads a scope
        pytest.param(
            ["verify", "--mode", "hde-definition", "--f1", "path:0", "--f2", "path:1", "--c", "5",
             "--samples", "3", "--n", "0"],
            "at least one vertex", id="argv28-at least one vertex"),
        pytest.param(
            ["verify", "--mode", "blakley-roy", "--k", "2", "--samples", "3", "--n", "0"],
            "a scope's graphs need at least one vertex",
            id="argv29-a scope's graphs need at least one vertex"),
        pytest.param(
            ["verify", "--mode", "counterexample", "--t", "2", "--k", "3", "--samples", "1",
             "--n", "0"],
            "a scope's graphs need at least one vertex",
            id="argv30-a scope's graphs need at least one vertex"),
        # BadParity: the walk inequality is proved for odd t <= odd k
        pytest.param(
            ["verify", "--mode", "chain", "--t", "5", "--k", "3"],
            "need odd t <= odd k", id="argv31-need odd t <= odd k"),
        pytest.param(
            ["verify", "--mode", "chain", "--t", "0", "--k", "3"],
            "need odd t <= odd k", id="argv32-need odd t <= odd k"),
    ],
)
def test_out_of_domain_inputs_are_usage_errors(capsys, argv, message):
    # exit 1 means an unexpected violation; an input outside a command's
    # domain is a usage error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("c", ["1e30", "1000000", "1/1000000"])
def test_a_c_past_the_power_budget_is_refused_at_once(capsys, c):
    # hom_f2^a for a = 10^30 would run out of memory after seconds of squaring
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--mode", "hde-definition", "--f1", "path:1",
                             "--f2", "path:1", "--c", c, "--exhaustive-n", "2")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "homdom: " in err and "Traceback" not in err


def test_a_random_scope_past_the_draw_budget_is_refused_at_once(capsys):
    # without the budget this ran past 60 s
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--mode", "walk-inequality", "--t", "1", "--k", "3",
                             "--samples", "1000000000000000000", "--n", "1")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert f"exceed the draw budget: samples * (n^2 + 20) may be at most {SAMPLE_BUDGET}" in err


@pytest.mark.parametrize("f1, f2", [("path:32", "path:9"), ("path:62", "path:13")])
def test_a_source_past_the_profile_cap_is_refused_at_once(capsys, monkeypatch, f1, f2):
    # without the cap, P32 into P9 runs past 90 s
    monkeypatch.setattr("homdom.hde.build_polytope", _must_not_run)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "hde", "--f1", f1, "--f2", f2)
    assert time.perf_counter() - started < 10
    assert code == 2 and out == "" and "cap of 50000 distinct profiles" in err


def test_the_profile_cap_accepts_a_source_at_it(capsys, monkeypatch):
    # P16 has 204 distinct profiles into P3, and no set of the DP has more
    argv = ["hde", "--f1", "union:2*path:0+1*path:16", "--f2", "path:3"]
    monkeypatch.setattr(hde, "PROFILE_CAP", 204)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["result"]["hde"] == "3/1"
    monkeypatch.setattr(hde, "PROFILE_CAP", 203)
    monkeypatch.setattr("homdom.hde.build_polytope", _must_not_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "cap of 203 distinct profiles" in err


def test_unreadable_graph_files_are_usage_errors(capsys, tmp_path):
    superscript = tmp_path / "superscript.txt"
    superscript.write_text("2 1\n0 \u00b9\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"2 1\n0 \xff\n")
    long = tmp_path / "long.txt"  # int refuses a numeral past 4,300 digits
    long.write_text("2 1\n0 " + "1" * 5000 + "\n", encoding="utf-8")
    for graph, message in ((superscript, "not a decimal integer"), (tmp_path, "Is a directory"),
                           (latin1, "not UTF-8 text"), (tmp_path / "missing.txt", "No such file"),
                           (long, "5000 digits")):
        code, out, err = run_cli(capsys, "walks", "--graph", str(graph), "--k", "1")
        assert code == 2 and out == "", graph
        assert message in err, graph


def _must_not_run(*args, **kwargs):
    pytest.fail("the command started its work before refusing its input")


def test_refusals_come_before_the_work(capsys, monkeypatch):
    # at --t 63 the path would have 64 vertices, and --exhaustive-n 7
    # would sweep n = 1 ... 6 first: both are refused before any of that
    monkeypatch.setattr("homdom.lp.solve", _must_not_run)
    monkeypatch.setattr(cli, "sweep", _must_not_run)
    for argv, message in (
        (["--mode", "lemma-identity", "--t", "63"], "exceeds cap of 63"),
        (["--mode", "walk-inequality", "--t", "1", "--k", "2", "--exhaustive-n", "7"],
         "capped at n=6"),
        (["--mode", "density-form", "--t", "1", "--k", "2", "--exhaustive-n", "7"],
         "capped at n=6"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


def test_a_source_with_no_homomorphism_is_refused_before_the_polytope(capsys, monkeypatch):
    # path:13 is at the ground-set cap: its polytope would take seconds
    # and hundreds of MB, while the triangle has no map into a path
    monkeypatch.setattr("homdom.hde.build_polytope", _must_not_run)
    code, out, err = run_cli(capsys, "hde", "--f1", "cycle:3", "--f2", "path:13")
    assert code == 3 and out == ""
    assert "admits no homomorphism" in err


def test_proofs_past_the_ground_set_cap_need_no_polytope(capsys, monkeypatch):
    # the chain rows prove both verdicts with form arithmetic alone
    for name in ("homdom.lp.solve", "homdom.polytope.build_polytope",
                 "homdom.hde.build_polytope", "homdom.cli.build_polytope"):
        monkeypatch.setattr(name, _must_not_run)
    for t in (21, 41):
        code, doc = run_json(capsys, "certificate", "--t", str(t))
        assert code == 0 and doc["result"]["verdict"] == "holds", t
        assert doc["result"]["lower"] == doc["result"]["upper"] == f"{t + 2}/1", t
    code, doc = run_json(capsys, "verify", "--mode", "lemma-identity", "--t", "41")
    assert code == 0
    assert doc["result"] == {"residual": "0/1", "verdict": "holds"}
    code, out, err = run_cli(capsys, "certificate", "--t", "61")
    assert code == 2 and out == "" and "exceeds cap of 63" in err


def test_certificate_rejects_a_broken_lower_proof(capsys, monkeypatch):
    for t in (3, 5, 7):
        ends, folds = _psi_parts(t)[:2], _psi_parts(t)[2:]
        forms = {
            "phi_1 dropped": objective_of(ends + folds[1:]),
            "phi_2 replaced by phi_1": objective_of(ends + folds[:1] * 2 + folds[2:]),
            "one end dropped": objective_of(ends[:1] + folds),
            "scale t+1": tuple((m, (t + 1) * c) for m, c in path_form(t)),
        }
        assert objective_of(ends + folds) == hde.walk_form(t, t + 2)
        for name, form in forms.items():
            assert not prove_path_identity(t, form, t + 2), (t, name)
            monkeypatch.setattr(cli, "walk_form", lambda t, k, form=form: form)
            code, doc = run_json(capsys, "certificate", "--t", str(t))
            assert code == 1 and doc["result"]["lower"] is None, (t, name)
            assert doc["result"]["verdict"] == "violated", (t, name)
        monkeypatch.undo()
        # psi's form intact, the path identity not proved
        monkeypatch.setattr(cli, "prove_path_identity", lambda *args: False)
        code, doc = run_json(capsys, "certificate", "--t", str(t))
        assert code == 1 and doc["result"]["lower"] is None, t
        code, doc = run_json(capsys, "verify", "--mode", "lemma-identity", "--t", str(t))
        assert code == 1 and doc["result"] == {"residual": None, "verdict": "violated"}, t
        monkeypatch.undo()


# one run per verify mode, keyed and ordered as ``cli.VERIFY_MODES``, with
# the options that the mode reads: those of the scope branch it takes
VERIFY_RUNS = {
    "blakley-roy": (["--k", "2", "--samples", "3", "--n", "4", "--edge-prob", "1/3",
                     "--seed", "7"],
                    {"k": 2, "samples": 3, "n": 4, "edge-prob": "1/3", "seed": 7}),
    "walk-inequality": (["--t", "1", "--k", "2", "--exhaustive-n", "3"],
                        {"t": 1, "k": 2, "exhaustive-n": 3}),
    "density-form": (["--t", "1", "--k", "2", "--samples", "2", "--n", "3"],
                     {"t": 1, "k": 2, "samples": 2, "n": 3, "edge-prob": "1/2", "seed": 0}),
    "counterexample": (["--t", "2", "--k", "3", "--exhaustive-n", "3"],
                       {"t": 2, "k": 3, "exhaustive-n": 3}),
    "lemma-identity": (["--t", "2"], {"t": 2}),
    "chain": (["--t", "1", "--k", "5"], {"t": 1, "k": 5}),
    "hde-definition": (["--f1", "path:1", "--f2", "path:1", "--c", "1", "--exhaustive-n", "3"],
                       {"f1": "path:1", "f2": "path:1", "c": "1", "exhaustive-n": 3}),
}


def test_verify_config_records_the_options_read_and_reproduces(capsys):
    assert list(VERIFY_RUNS) == list(cli.VERIFY_MODES)
    for mode in cli.VERIFY_MODES:
        options, read = VERIFY_RUNS[mode]
        code, doc = run_json(capsys, "verify", "--mode", mode, *options)
        config = doc["config"]
        assert config == {"subcommand": "verify", "mode": mode, **read}, mode
        rerun = [config["subcommand"]]
        for key, value in config.items():
            if key != "subcommand":
                rerun += [f"--{key}", str(value)]
        again_code, again = run_json(capsys, *rerun)
        assert again_code == code, mode
        for d in (doc, again):
            d.pop("timestamp")
            d.pop("elapsed_s")
        assert again == doc, mode


# a value for every verify option that each mode reading it accepts
VERIFY_VALUES = {"t": "1", "k": "2", "exhaustive-n": "3", "samples": "2", "n": "3",
                 "edge-prob": "1/2", "seed": "0", "f1": "path:1", "f2": "path:1", "c": "1"}


@pytest.mark.parametrize("mode", list(cli.VERIFY_MODES))
def test_verify_refuses_a_missing_or_an_unread_option(capsys, mode):
    options, read = VERIFY_RUNS[mode]
    names = cli.VERIFY_MODES[mode][0]
    scope = {"exhaustive-n", *(name.replace("_", "-") for name in cli.RANDOM_SCOPE)}
    assert set(read) - scope == set(names) - {"scope"}
    assert bool(set(read) & scope) == ("scope" in names)
    # every option read is required but the random scope's two with a default
    required = [name for name in read if cli.RANDOM_SCOPE.get(name.replace("-", "_")) is None]
    given = dict(zip(options[::2], options[1::2]))
    for name in required:
        argv = [arg for key, value in given.items() if key != f"--{name}" for arg in (key, value)]
        code, out, err = run_cli(capsys, "verify", "--mode", mode, *argv)
        assert code == 2 and out == "" and f"--{name}" in err, (name, err)
    for name in VERIFY_VALUES.keys() - read:
        argv = [*options, f"--{name}", VERIFY_VALUES[name]]
        code, out, err = run_cli(capsys, "verify", "--mode", mode, *argv)
        assert code == 2 and out == "" and f"--{name}" in err, (name, err)


def test_lemma_identity_default_samples(capsys):
    # the identity is proved for every polytope member, so no points are sampled
    for t in range(1, 9):
        code, doc = run_json(capsys, "verify", "--mode", "lemma-identity", "--t", str(t))
        assert code == 0
        assert doc["result"] == {"residual": "0/1", "verdict": "holds"}


# the exit code of every error follows its base class, not a list in the CLI
EXIT_CODES = {
    "HomdomError": 1, "GroundMismatch": 1, "NotMember": 1, "RatlpError": 1,
    "UsageError": 2, "BadIndex": 2, "BadParity": 2, "BadVertex": 2, "EmptyGraph": 2,
    "EmptyScope": 2, "GraphTooLarge": 2, "GroundTooLarge": 2, "MalformedInput": 2,
    "ScopeTooLarge": 2,
    "PreconditionError": 3, "NoHomomorphism": 3, "NotChordal": 3, "NotSeriesParallel": 3,
}


def test_exit_codes_follow_the_error_base_class(capsys, monkeypatch):
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.HomdomError)]
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("refused on purpose")

        monkeypatch.setattr(cli, "cmd_dump_polytope", fail)
        code, out, err = run_cli(capsys, "dump-polytope", "--f2", "path:1")
        assert code == EXIT_CODES[cls.__name__], cls
        assert out == "" and "refused on purpose" in err, cls


@pytest.mark.parametrize("k", range(1, 7))
def test_blakley_roy_matches_the_per_graph_check(capsys, k):
    reports = [check_blakley_roy(G, k) for G in Scope.exhaustive_upto(5)]
    violations = sum(rep.verdict == "violated" for rep in reports)
    code, doc = run_json(
        capsys, "verify", "--mode", "blakley-roy", "--k", str(k), "--exhaustive-n", "5"
    )
    assert code == 0
    assert doc["result"] == {
        "checked": len(reports),
        "violations": violations,
        "verdict": "holds" if violations == 0 else "violated",
    }


def test_blakley_roy_reports_the_largest_violation(capsys, monkeypatch):
    # the inequality holds on every graph, so a violated sweep is simulated;
    # its witness graph is the one with the largest violation
    worst = from_edges(4, [(0, 1), (1, 2), (1, 3)])

    def fake_sweep(t, k, scope):
        witness = {"graph": serialize_graph(worst), "lhs": "0/1", "rhs": "1/1",
                   "relation": "w_k^t >= w_t^k"}
        params = {"t": t, "k": k, "checked": 5, "violations": 3, "worst_margin": "-1/1"}
        return CheckReport("sweep", params, "violated", (witness,))

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    code, doc = run_json(
        capsys, "verify", "--mode", "blakley-roy", "--k", "3", "--exhaustive-n", "2"
    )
    assert code == 1
    assert doc["result"] == {
        "checked": 5,
        "violations": 3,
        "verdict": "violated",
        "witness": check_blakley_roy(worst, 3).to_json(),
    }


def test_counts_past_the_integer_conversion_limit(capsys, tmp_path):
    # 4 * 3^10000 has 4,772 digits, past the 4,300 that str() accepts by default
    k4 = tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, doc = run_json(capsys, "walks", "--graph", str(k4), "--k", "10000")
    assert code == 0
    walks = doc["result"]["walks"]
    assert len(walks) == 4772
    assert int(walks[:-4000]) * 10**4000 + int(walks[-4000:]) == 4 * 3**10000

    for mode_args in (["--mode", "walk-inequality", "--t", "1"], ["--mode", "blakley-roy"]):
        code, doc = run_json(capsys, "verify", *mode_args, "--k", "9100", "--samples", "1",
                             "--n", "4", "--edge-prob", "1")
        assert code == 0 and doc["result"]["verdict"] == "holds"


def _readme_commands():
    """Every ``homdom ...`` line of README's CLI block, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("homdom ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2.txt").write_text("3 2\n0 1\n1 2\n")  # as the block's printf writes it
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
