import json

import pytest

from sphmoduli import adapted, build_context, build_root_system, cli, spherical_root_catalog


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out


def test_crossed_lines_json_report(capsys):
    status, out = run_cli(
        capsys, "analyze", "--group", "A1xA1",
        "--weights", "[[2,0],[4,2]]", "--json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["tangent"]["dimension"] == 2
    assert set(report["tangent"]["weights"]) == {"a1", "2*a2"}
    assert report["sp_gamma"] == []
    assert report["e_gamma"] == [["1", "0"], ["0", "1"]]


def test_crossed_lines_subsets_and_oracle(capsys):
    status, out = run_cli(
        capsys, "analyze", "--group", "A1xA1",
        "--weights", "[[2,0],[4,2]]", "--json", "--oracle", "--enumerate-subsets",
    )
    assert status == 0
    report = json.loads(out)
    assert report["oracle"]["agrees"] is True
    maximal = [s for s in report["subsets"] if s["maximal"]]
    assert len(maximal) == 2
    assert all(s["size"] == 1 for s in maximal)


def test_sl2_oracle(capsys):
    status, out = run_cli(
        capsys, "analyze", "--group", "A1", "--weights", "[[2]]",
        "--json", "--oracle",
    )
    assert status == 0
    report = json.loads(out)
    assert report["tangent"]["weights"] == ["2*a1"]
    assert report["oracle"]["agrees"] is True


def test_empty_weights(capsys):
    status, out = run_cli(capsys, "analyze", "--group", "B3", "--weights", "[]")
    assert status == 0
    assert "tangent dimension 0" in out


def test_json_roundtrip_and_determinism(capsys):
    args = ["analyze", "--group", "B2", "--weights", "[[2,0],[0,2]]", "--json"]
    status1, out1 = run_cli(capsys, *args)
    status2, out2 = run_cli(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert json.loads(json.dumps(report)) == report


def test_text_and_json_verdicts_agree(capsys):
    base = ["analyze", "--group", "G2", "--weights", "[[0,2]]"]
    _, text_out = run_cli(capsys, *base)
    _, json_out = run_cli(capsys, *base, "--json")
    report = json.loads(json_out)
    for entry in report["catalog"]:
        expected_n = "yes" if entry["n_adapted"] else f"no({entry['n_adapted_failed']})"
        line = next(l for l in text_out.splitlines() if l.strip().startswith(entry["name"] + " "))
        assert f"n_adapted={expected_n}" in line
    dim_line = next(l for l in text_out.splitlines() if l.startswith("tangent dimension"))
    assert dim_line.startswith(f"tangent dimension {report['tangent']['dimension']}")


@pytest.mark.parametrize("group,weights,fragment", [
    ("D3", "[[1,1,1]]", "bad group"),
    ("A2", "[[1,0],", "bad weights JSON"),
    ("A2", "[[1,0],[0,-1]]", "not dominant"),
    ("A2", "[[1,0],[2,0]]", "dependent"),
    ("A2", "[[1,0,0]]", "length"),
    ("A1xA1", "[[true,false],[false,true]]", "weights must be a JSON list of integer vectors"),
    pytest.param("A2", "[[" + "1" * 5000 + "]]", "bad weights JSON", id="A2-5000-digits"),
    pytest.param("A2", "[" * 3000 + "]" * 3000, "bad weights JSON", id="A2-3000-deep"),
    pytest.param("x".join(["A1"] * 101), "[]", "rank 101", id="A1^101"),
])
def test_validation_errors(capsys, group, weights, fragment):
    status = cli.main(["analyze", "--group", group, "--weights", weights])
    captured = capsys.readouterr()
    assert status == 2
    assert fragment in captured.out + captured.err


def test_largest_rank_answers(capsys):
    # A1^100 has the rank of A100, the largest accepted, and 100 positive roots
    status, out = run_cli(capsys, "analyze", "--group", "x".join(["A1"] * 100),
                          "--weights", "[]", "--json")
    assert status == 0
    assert json.loads(out)["tangent"]["dimension"] == 0


def test_oracle_disagreement_exits_nonzero(capsys, monkeypatch):
    from sphmoduli import oracle
    from sphmoduli.oracle import OracleReport

    monkeypatch.setattr(
        cli.oracle, "oracle_tangent_weights",
        lambda model, quotient=None: OracleReport(weights={}),
    )
    status, out = run_cli(
        capsys, "analyze", "--group", "A1", "--weights", "[[2]]",
        "--json", "--oracle",
    )
    assert status == 1
    report = json.loads(out)
    assert report["oracle"]["agrees"] is False
    # both weight sets are in the report for comparison
    assert report["tangent"]["weights"] == ["2*a1"]
    assert report["oracle"]["weights"] == []


def _count_module_builds(monkeypatch) -> list:
    """Every call of `build_irrep`, from the oracle or from irreps itself."""
    from sphmoduli import irreps, oracle

    calls = []
    original = irreps.build_irrep

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(irreps, "build_irrep", counting)
    monkeypatch.setattr(oracle, "build_irrep", counting)
    return calls


@pytest.mark.parametrize("group,weights", [
    ("G2", "[[2,1]]"),          # the 189-dimensional module of the oracle corpus
    ("F4", "[[0,0,1,0]]"),
])
def test_oracle_builds_no_module_without_candidates(capsys, monkeypatch, group, weights):
    # no lattice twisted weight is a candidate for an invariant class, so
    # the oracle answers, with the report it gave from the full model,
    # without building a module
    calls = _count_module_builds(monkeypatch)
    status, out = run_cli(capsys, "analyze", "--group", group, "--weights", weights,
                          "--json", "--oracle")
    assert status == 0
    assert calls == []
    assert json.loads(out)["oracle"] == {
        "weights": [], "coords": [], "multiplicities": [], "agrees": True}
    # the counter does see a module that the oracle builds
    assert run_cli(capsys, "analyze", "--group", "A1", "--weights", "[[2]]", "--oracle")[0] == 0
    assert len(calls) == 1


def test_dimension_cap_applies_without_a_module(capsys, monkeypatch):
    # the cap still holds each basis weight's Weyl dimension where no
    # module would be built
    calls = _count_module_builds(monkeypatch)
    status, out = run_cli(capsys, "analyze", "--group", "G2", "--weights", "[[2,1]]",
                          "--json", "--oracle", "--irrep-dim-cap", "100")
    assert status == 2
    assert calls == []
    report = json.loads(out)
    assert report["oracle_error"] == \
        "irreducible module of highest weight (2, 1) has dimension 189 > cap 100"
    assert "oracle" not in report


def test_budget_exhaustion_keeps_partial_subsets(capsys, monkeypatch):
    original = adapted.enumerate_n_adapted_subsets

    def small_budget(ctx, max_size=None):
        return original(ctx, max_size=max_size, budget=3)

    monkeypatch.setattr(adapted, "enumerate_n_adapted_subsets", small_budget)
    status, out = run_cli(
        capsys, "analyze", "--group", "A1xA1xA1",
        "--weights", "[[2,0,0],[0,2,0],[0,0,2]]", "--json", "--enumerate-subsets",
    )
    assert status == 2
    report = json.loads(out)
    assert "more than 3" in report["subsets_error"]
    assert report["subsets"]
    assert all(set(s) == {"roots", "coords", "size", "maximal"} for s in report["subsets"])


@pytest.mark.parametrize("group,weights", [
    ("A1xA1", [[2, 0], [4, 2]]),            # the crossed lines
    ("A1", [[2]]),
    ("A3", [[2, 0, 1], [1, 1, 0], [0, 1, 1]]),   # two simple roots share a color
    ("B2", [[2, 0], [1, 2]]),
])
def test_catalog_strict_verdicts_come_from_tangent_space(capsys, group, weights):
    # the report evaluates the strict singleton test once per root, in
    # tangent_space; each catalog entry must still carry its own verdict
    status, out = run_cli(capsys, "analyze", "--group", group,
                          "--weights", json.dumps(weights), "--json")
    assert status == 0
    report = json.loads(out)
    ctx = build_context(build_root_system(group), [tuple(w) for w in weights])
    roots = {r.coords: r for r in spherical_root_catalog(ctx.rs)}
    assert len(report["catalog"]) == len(roots)
    for entry in report["catalog"]:
        verdict = adapted.is_n_adapted_singleton(ctx, roots[tuple(entry["coords"])])
        assert (entry["n_adapted"], entry["n_adapted_failed"]) == (verdict.ok, verdict.failed)
    assert report["tangent"]["coords"] == [e["coords"] for e in report["catalog"] if e["n_adapted"]]


def test_module_parser_keeps_no_state_between_calls(capsys):
    # `main` parses with the parser built once at import; flags of one call
    # must not carry over to the next
    first = ["analyze", "--group", "A1", "--weights", "[[2]]", "--json"]
    status, out = run_cli(capsys, *first, "--oracle", "--enumerate-subsets",
                          "--max-subset-size", "0", "--irrep-dim-cap", "7")
    assert status == 0
    assert json.loads(out)["request"] == {
        "group": "A1", "weights": [[2]], "oracle": True, "enumerate_subsets": True,
        "max_subset_size": 0, "irrep_dim_cap": 7}
    status, out = run_cli(capsys, *first)
    assert status == 0
    assert json.loads(out)["request"] == {
        "group": "A1", "weights": [[2]], "oracle": False, "enumerate_subsets": False,
        "max_subset_size": 1, "irrep_dim_cap": 5000}
    assert vars(cli.PARSER.parse_args(first)) == vars(cli.build_parser().parse_args(first))
