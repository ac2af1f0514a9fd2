import pytest

from conftest import SPRINKLER_TEXT, TWIN_SPRINKLER_TEXT
from whatif.cli import main
from whatif.model import CounterfactualQuery, Var
from whatif.parser import parse_formula, parse_literals, parse_problog, parse_lpad, print_problog
from whatif.transforms import intervene, relevant, twin
from whatif import wmc as wmc_mod
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


@pytest.mark.parametrize("backend", ["wmc", "enumerate", "oracle"])
@pytest.mark.parametrize("evidence, do, code, text", [
    ("u1", "\\+sprinkler", 0, "1/10"),  # evidence on a random fact conditions the shared fact
    ("\\+u1,wet", "\\+sprinkler", 0, "1"),  # no season: wet means rain, which stays
    ("wet", "\\+u1", 2, "cannot intervene on external atoms"),
])
def test_random_facts_in_the_query(capsys, sprinkler_file, backend, evidence, do, code, text):
    result, out, err = run(
        capsys, "query", str(sprinkler_file), "--query", "slippery",
        "--evidence", evidence, "--do", do, "--backend", backend,
    )
    assert result == code
    assert out.strip() == text if code == 0 else text in err


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


def test_zero_denominator_is_a_syntax_error(capsys, tmp_path):
    bad = tmp_path / "zero.pl"
    bad.write_text("0.5::u.\n1/0::a.")
    code, _, err = run(capsys, "query", str(bad), "--query", "a")
    assert code == 1
    assert "zero denominator at line 2, column 3" in err


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


def test_translate_reports_where_an_lpad_head_repeats_an_atom(capsys, tmp_path):
    lpad_file = tmp_path / "repeat.lpad"
    lpad_file.write_text("a:0.5; a:0.5.")
    code, _, err = run(capsys, "translate", str(lpad_file), "--to", "problog")
    assert code == 1
    assert "duplicate head atoms in one clause at line 1, column 1" in err


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
    transformed, formula, evidence = twin(program, query)
    reduced = relevant(transformed, formula, evidence)
    plain = to_weighted_cnf(reduced)
    counted, _ = add_formula(plain, formula)
    # the disjunction's Tseitin variable and clauses come on top of the twin's
    assert target.read_text() == dump_dimacs(counted)
    assert len(counted.clauses) > len(plain.clauses)
    # two weight lines per kept fact, its probability and its complement; no others
    weights = [line.split()[3:] for line in target.read_text().splitlines()
               if line.startswith("c p weight ")]
    assert len(weights) == 2 * len(reduced.externals) > 0
    probs = reduced.fact_probs()
    expected = {}
    for atom in reduced.externals:
        var = counted.var_map[atom]
        expected[var], expected[-var] = float(probs[atom]), float(1 - probs[atom])
    assert {int(lit): float(value) for lit, value, _ in weights} == expected


@pytest.mark.parametrize("backend", ["wmc", "enumerate"])
def test_dump_cnf_encodes_the_query_once(monkeypatch, capsys, sprinkler_file, tmp_path, backend):
    # with wmc the file holds the CNF that is counted; the other backends encode it only for the file
    encoded, counted = [], []
    encode_query, wmc = wmc_mod.encode_query, wmc_mod.wmc

    def encode_counted(*args):
        encoded.append(encode_query(*args))
        return encoded[-1]

    def wmc_counted(cnf, *args, **kwargs):
        counted.append(cnf)
        return wmc(cnf, *args, **kwargs)

    monkeypatch.setattr(wmc_mod, "encode_query", encode_counted)
    monkeypatch.setattr(wmc_mod, "wmc", wmc_counted)
    target = tmp_path / "twin.cnf"
    code, out, _ = run(capsys, "query", str(sprinkler_file), "--query", "slippery",
                       "--evidence", "sprinkler,slippery", "--do", "\\+sprinkler",
                       "--backend", backend, "--dump-cnf", str(target))
    assert code == 0 and out.strip() == "1/10"
    assert len(encoded) == 1
    (cnf, _, _), = encoded
    assert target.read_text() == dump_dimacs(cnf)
    assert counted == ([cnf, cnf] if backend == "wmc" else [])


@pytest.mark.parametrize("backend", ["wmc", "enumerate", "oracle"])
def test_dump_cnf_without_evidence_is_the_intervened_programs(
    monkeypatch, capsys, sprinkler_file, tmp_path, backend
):
    # a query without evidence builds no twin: the intervened program is encoded
    encoded, encode_query = [], wmc_mod.encode_query

    def encode_recorded(program, *args):
        encoded.append(program)
        return encode_query(program, *args)

    monkeypatch.setattr(wmc_mod, "encode_query", encode_recorded)
    target = tmp_path / "acted.cnf"
    code, out, _ = run(capsys, "query", str(sprinkler_file), "--query", "slippery",
                       "--do", "\\+sprinkler", "--backend", backend, "--dump-cnf", str(target))
    assert code == 0 and out.strip() == "7/20"
    acted = intervene(parse_problog(sprinkler_file.read_text()), parse_literals("\\+sprinkler"))
    assert encoded == [acted]
    assert target.read_text() == dump_dimacs(encode_query(acted, Var("slippery"))[0])


def test_dump_cnf_of_a_cyclic_program_fails_before_answering(capsys, tmp_path):
    program = tmp_path / "cyc.pl"
    program.write_text("0.5::u. a :- b. b :- a. a :- u. c :- a.")
    target = tmp_path / "cyc.cnf"
    with pytest.warns(UserWarning, match="cyclic"):
        code, out, _ = run(capsys, "query", str(program), "--query", "c", "--backend", "enumerate")
    assert code == 0 and out.strip() == "1/2"
    for backend in ("enumerate", "oracle", "wmc"):
        code, out, err = run(capsys, "query", str(program), "--query", "c",
                             "--backend", backend, "--dump-cnf", str(target))
        assert code == 2 and out == ""
        assert "--dump-cnf" in err and "acyclic" in err
        assert not target.exists()


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
