import json
from fractions import Fraction

import pytest

from homdom import cli
from homdom.checks import CheckReport
from homdom.cli import main


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
        capsys, "verify", "--mode", "lemma-identity", "--t", "2", "--samples", "5"
    )
    assert code == 0 and doc["result"]["verdict"] == "holds"


def test_certificate(capsys):
    code, doc = run_json(capsys, "certificate", "--t", "1", "--batch", "5")
    assert code == 0
    assert doc["result"]["upper"] == "3/1"
    assert doc["result"]["lower_values"] == ["3/1"] * 5

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
        ["certificate", "--t", "3", "--batch", "0"],
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


def test_empty_scope_from_a_check_is_a_usage_error(capsys, monkeypatch):
    # the library refuses a scope with no graphs; the CLI reports it as bad input
    monkeypatch.setattr(cli, "_verify_scope", lambda args: cli.Scope.graphs([]))
    code, out, err = run_cli(
        capsys, "verify", "--mode", "counterexample", "--t", "2", "--k", "3", "--samples", "1",
        "--n", "3",
    )
    assert code == 2 and out == ""
    assert "at least one graph" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # BadIndex
        (["verify", "--mode", "walk-inequality", "--t", "5", "--k", "3", "--exhaustive-n", "3"],
         "need 1 <= t <= k"),
        (["verify", "--mode", "walk-inequality", "--t", "0", "--k", "3", "--exhaustive-n", "3"],
         "need 1 <= t <= k"),
        # EmptyGraph
        (["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
          "--n", "0"], "at least one vertex"),
        # GraphTooLarge
        (["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
          "--n", "64"], "exceeds cap of 63"),
        (["hde", "--f1", "union:70*path:0", "--f2", "path:1"], "exceeds cap of 63"),
        # BadVertex
        (["verify", "--mode", "lemma-identity", "--t", "0"], "p* needs t >= 1"),
        # MalformedInput from Scope.random
        (["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
          "--n", "5", "--edge-prob", "3/2"], "edge probability must be in [0, 1]"),
        # a leading minus must not make argparse read the value as an option
        (["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
          "--n", "5", "--edge-prob", "-1/2"], "edge probability must be in [0, 1]"),
        (["verify", "--mode", "walk-inequality", "--t", "3", "--k", "5", "--samples", "3",
          "--n", "5", "--edge-prob=-1/2"], "edge probability must be in [0, 1]"),
        # BadIndex: a negative exponent would compare float powers of 0
        (["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1", "--c", "-1",
          "--exhaustive-n", "3"], "need c >= 0"),
        (["verify", "--mode", "hde-definition", "--f1", "path:1", "--f2", "path:1", "--c=-1/2",
          "--exhaustive-n", "3"], "need c >= 0"),
    ],
)
def test_out_of_domain_inputs_are_usage_errors(capsys, argv, message):
    # exit 1 means an unexpected violation; an input outside a command's
    # domain is a usage error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_lemma_identity_default_samples(capsys):
    code, doc = run_json(capsys, "verify", "--mode", "lemma-identity", "--t", "2")
    assert code == 0
    assert doc["result"]["checked_points"] == 3 + 1 + cli.LEMMA_SAMPLES


def test_blakley_roy_reports_the_largest_violation(capsys, monkeypatch):
    # the inequality holds on every graph, so violations are simulated
    margins = iter([Fraction(-1), Fraction(-3), Fraction(-2)])

    def fake_check(G, k):
        lhs = next(margins)
        witness = {"graph": "", "lhs": str(lhs), "rhs": "0/1", "relation": "w_k >= d^k"}
        return CheckReport("blakley-roy", {"k": k, "n": G.n}, "violated", (witness,), 0.0)

    monkeypatch.setattr(cli, "check_blakley_roy", fake_check)
    code, doc = run_json(
        capsys, "verify", "--mode", "blakley-roy", "--k", "2", "--exhaustive-n", "2"
    )
    assert code == 1
    assert doc["result"]["violations"] == 3
    assert doc["result"]["witness"]["witnesses"][0]["lhs"] == "-3"
