import pytest

from conftest import SPRINKLER_TEXT, TWIN_SPRINKLER_TEXT
from whatif.cli import main
from whatif.model import CounterfactualQuery, Var
from whatif.parser import parse_formula, parse_literals, parse_problog, parse_lpad, print_problog
from whatif.transforms import relevant, twin
from whatif.wmc import add_formula, dump_dimacs, to_weighted_cnf
from whatif.semantics import marginal
from whatif.lpad import lpad_distribution, lpad_of_problog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counterfactual_query(capsys, sprinkler_file):
    code, out, _ = run(
        capsys,
        "query",
        str(sprinkler_file),
        "--query",
        "slippery",
        "--evidence",
        "sprinkler,slippery",
        "--do",
        "\\+sprinkler",
    )
    assert code == 0
    assert out.strip() == "1/10"


def test_interventional_query(capsys, sprinkler_file):
    code, out, _ = run(
        capsys, "query", str(sprinkler_file), "--query", "slippery", "--do", "\\+sprinkler"
    )
    assert code == 0
    assert out.strip() == "7/20"


def test_float_precision(capsys, sprinkler_file):
    code, out, _ = run(
        capsys,
        "query",
        str(sprinkler_file),
        "--query",
        "slippery",
        "--do",
        "\\+sprinkler",
        "--precision",
        "float",
    )
    assert code == 0
    assert abs(float(out.strip()) - 0.35) < 1e-9


def test_all_backends_agree(capsys, sprinkler_file):
    for backend in ("wmc", "enumerate", "oracle"):
        code, out, _ = run(
            capsys,
            "query",
            str(sprinkler_file),
            "--query",
            "slippery",
            "--evidence",
            "sprinkler,slippery",
            "--do",
            "\\+sprinkler",
            "--backend",
            backend,
        )
        assert code == 0 and out.strip() == "1/10"


def test_zero_evidence_exit_code(capsys, sprinkler_file):
    code, _, err = run(
        capsys,
        "query",
        str(sprinkler_file),
        "--query",
        "rain",
        "--evidence",
        "sprinkler,\\+wet",
    )
    assert code == 2
    assert "zero" in err


def test_syntax_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_text("a :- b\nc.")
    code, _, err = run(capsys, "query", str(bad), "--query", "a")
    assert code == 1
    assert "syntax" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "query", str(tmp_path / "none.pl"), "--query", "a")
    assert code == 3


def test_transform_do(capsys, sprinkler_file, sprinkler):
    code, out, _ = run(capsys, "transform", str(sprinkler_file), "--do", "wet")
    assert code == 0
    result = parse_problog(out)
    assert all(c.body == frozenset() for c in result.clauses if c.head == "wet")


def test_transform_twin_matches_listing(capsys, sprinkler_file):
    code, out, _ = run(
        capsys,
        "transform",
        str(sprinkler_file),
        "--twin",
        "slippery;sprinkler,slippery;\\+sprinkler",
    )
    assert code == 0
    assert parse_problog(out) == parse_problog(TWIN_SPRINKLER_TEXT)


def test_transform_twin_splits_off_evidence_and_do_from_the_right(
    capsys, sprinkler_file, sprinkler
):
    # ';' in the query is "or"; the last two parts are the evidence and the interventions
    for text, query in (
        ("wet;rain;sprinkler;\\+rain", CounterfactualQuery(
            parse_formula("wet;rain"), parse_literals("sprinkler"), parse_literals("\\+rain"))),
        ("wet;rain;;", CounterfactualQuery(parse_formula("wet;rain"))),
    ):
        code, out, _ = run(capsys, "transform", str(sprinkler_file), "--twin", text)
        assert code == 0
        assert out == print_problog(twin(sprinkler, query)[0]), text


def test_translate_round_trip(capsys, sprinkler_file, tmp_path, sprinkler):
    code, out, _ = run(capsys, "translate", str(sprinkler_file), "--to", "lpad")
    assert code == 0
    lpad = parse_lpad(out)
    assert lpad_distribution(lpad, Var("slippery")) == marginal(sprinkler, Var("slippery"))
    lpad_file = tmp_path / "sprinkler.lpad"
    lpad_file.write_text(out)
    code, out, _ = run(capsys, "translate", str(lpad_file), "--to", "problog")
    assert code == 0
    back = parse_problog(out)
    assert marginal(back, Var("slippery")) == marginal(sprinkler, Var("slippery"))


def test_dump_cnf(capsys, sprinkler_file, tmp_path):
    target = tmp_path / "twin.cnf"
    code, out, _ = run(
        capsys,
        "query",
        str(sprinkler_file),
        "--query",
        "slippery",
        "--evidence",
        "sprinkler,slippery",
        "--do",
        "\\+sprinkler",
        "--dump-cnf",
        str(target),
    )
    assert code == 0 and out.strip() == "1/10"
    lines = target.read_text().splitlines()
    assert lines[0].startswith("p cnf ")
    # the reduced twin that is counted, not the plain twin's 19 variables
    assert int(lines[0].split()[2]) < 19


def test_dump_cnf_holds_the_query_clauses(capsys, sprinkler_file, tmp_path):
    target = tmp_path / "twin.cnf"
    argv = ["--evidence", "sprinkler,slippery", "--do", "\\+sprinkler"]
    code, out, _ = run(capsys, "query", str(sprinkler_file), "--query", "wet ; rain", *argv,
                       "--dump-cnf", str(target))
    assert code == 0 and out.strip() == "1/10"
    program = parse_problog(sprinkler_file.read_text())
    query = CounterfactualQuery(
        parse_formula("wet ; rain"), parse_literals(argv[1]), parse_literals(argv[3])
    )
    reduced, formula, _ = relevant(*twin(program, query))
    plain = to_weighted_cnf(reduced)
    counted, _ = add_formula(plain, formula)
    # the disjunction's Tseitin variable and clauses come on top of the twin's
    assert target.read_text() == dump_dimacs(counted)
    assert len(counted.clauses) > len(plain.clauses)


def test_bench_subcommand(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "bench",
        "--n",
        "3",
        "--k",
        "1",
        "--seeds",
        "1",
        "--evidence-count",
        "1",
        "--intervention-count",
        "-1",
        "--time-limit",
        "30",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("n,k,seed,")
    assert len(lines) == 2
    assert ",OK," in lines[1]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("whatif ")
