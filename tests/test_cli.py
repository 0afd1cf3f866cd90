import json

import pytest

from hyperchrom.cli import main
from hyperchrom.hypergraph import complete_hypergraph, format_hypergraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chromatic_json(capsys):
    code, out, _ = run(capsys, "chromatic", "--graph", "petersen", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chromatic_number"] == 3
    assert payload["exact"]
    assert len(payload["coloring"]) == 10


def test_local_human(capsys):
    code, out, _ = run(capsys, "local", "--graph", "K4")
    assert code == 0
    assert out.strip() == "chi_l = 4"


def test_named_families(capsys):
    for name, chi in [("C5", 3), ("K:5:2", 5), ("KG:5:2", 3), ("KG:3:7:2", 2)]:
        code, out, _ = run(capsys, "chromatic", "--graph", name, "--json")
        assert code == 0
        assert json.loads(out)["chromatic_number"] == chi


def test_alt_and_cd(capsys):
    code, out, _ = run(capsys, "alt", "--graph", "K:5:2", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out)["alt"] == 2
    code, out, _ = run(capsys, "cd", "--graph", "K:5:2", "--p", "2")
    assert code == 0
    assert out.strip() == "cd_2 = 3"


def test_alt_sampled_mode(capsys):
    code, out, _ = run(
        capsys, "alt", "--graph", "K:5:2", "--p", "2", "--mode", "sampled", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert not payload["exact"]
    assert payload["alt"] >= 2  # an upper bound on alt_2(K_5^2) = 2


def test_global_flags_accepted_on_either_side(capsys):
    a = run(capsys, "--json", "alt", "--graph", "K:5:2", "--p", "2")
    b = run(capsys, "alt", "--graph", "K:5:2", "--p", "2", "--json")
    assert a == b


def test_xind_q_poset(capsys):
    code, out, _ = run(
        capsys, "xind", "--poset", "q", "--n", "1", "--p", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["xind"] == 1


def test_indbounds(capsys):
    code, out, _ = run(
        capsys, "indbounds", "--graph", "K2", "--p", "2", "--depth", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == payload["upper"] == 1
    assert payload["certificates"]


def test_bounds_consistent_exit_zero(capsys):
    code, out, _ = run(
        capsys, "bounds", "--graph", "K:5:2", "--r", "2", "--p", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"]
    values = {e["name"]: e for e in payload["entries"]}
    assert values["cd_p(F)"]["value"] == 3
    assert values["|V(F)| - alt_p(F)"]["value"] == 3


def test_colorful_witness_and_counterexample_exit(capsys):
    code, out, _ = run(
        capsys,
        "colorful", "--graph", "petersen", "--p", "2", "--target", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["found"]
    code, out, _ = run(
        capsys,
        "colorful", "--graph", "K2", "--p", "2", "--target", "5", "--json",
    )
    assert code == 2
    assert not json.loads(out)["found"]


@pytest.mark.parametrize(
    "command",
    [["colorful", "--p", "2", "--target", "2"], ["zigzag"]],
    ids=["colorful", "zigzag"],
)
@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["unseeded", "seeded"])
def test_witness_search_without_proper_coloring_exits_one(
    capsys, tmp_path, command, seed
):
    path = tmp_path / "singletons.txt"
    path.write_text("v 2\ne 1\ne 2\n")
    code, out, err = run(capsys, *command, "--file", str(path), *seed)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_zigzag_seeded(capsys):
    a = run(
        capsys,
        "zigzag", "--graph", "petersen", "--seed", "5", "--colors", "3", "--json",
    )
    b = run(
        capsys,
        "zigzag", "--graph", "petersen", "--seed", "5", "--colors", "3", "--json",
    )
    assert a[0] == 0
    assert a == b
    assert json.loads(a[1])["found"]


def test_verify_single_run(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--lemma", "zp-fan",
        "--n", "2", "--m", "2", "--p", "2", "--alpha", "0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexamples_total"] == 0
    assert payload["runs"][0]["admissible"] == 80


def test_verify_alpha_beyond_n(capsys):
    # the chain asked for is empty, so no labeling is a counterexample
    code, out, _ = run(
        capsys,
        "verify", "--lemma", "zp-fan",
        "--n", "2", "--m", "2", "--p", "2", "--alpha", "5", "--json",
    )
    assert code == 0
    assert json.loads(out)["runs"][0]["counterexamples"] == 0


def test_verify_manifest_threads(capsys, tmp_path):
    manifest = tmp_path / "campaign.json"
    manifest.write_text(
        json.dumps(
            {
                "runs": [
                    {"lemma": "zp-fan", "n": 2, "m": 2, "p": 2, "alpha": 0},
                    {"lemma": "zp-fan", "n": 3, "m": 1, "p": 2, "alpha": 0},
                ]
            }
        )
    )
    code, out, _ = run(
        capsys, "verify", "--manifest", str(manifest), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["runs"]) == 2
    assert payload["counterexamples_total"] == 0


def test_file_input_roundtrip(capsys, tmp_path):
    path = tmp_path / "k52.txt"
    path.write_text(format_hypergraph(complete_hypergraph(5, 2)))
    code, out, _ = run(capsys, "chromatic", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["chromatic_number"] == 5


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "alt", "--graph", "K:5:2", "--p", "4")[0] == 1
    assert run(capsys, "chromatic")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "chromatic", "--graph", "nonsense")[0] == 1
    assert run(capsys, "verify")[0] == 1


FAN_FLAGS = {"n": "2", "m": "2", "p": "2", "alpha": "0"}


def assert_usage_error(result):
    code, out, err = result
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["chromatic", "--graph", "K4", "--threads", "2"],
        ["chromatic", "--family", "petersen"],
    ],
    ids=["threads", "family"],
)
def test_removed_flags_exit_one(capsys, argv):
    assert_usage_error(run(capsys, *argv))


@pytest.mark.parametrize(
    "text", ["v\n", "v -2\n", "v 0\n", "v 2 7\ne 1 2\n"],
    ids=["no-count", "negative", "zero", "extra-token"],
)
def test_bad_vertex_line_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text("# a comment line\n" + text)
    result = run(capsys, "chromatic", "--file", str(path))
    assert_usage_error(result)
    assert result[2].startswith("error: line 2: ")


@pytest.mark.parametrize(
    "text",
    ["v 3\ne 1 x\n", "v 3\ne 1 9\n", "v 3\ne\n", "e 1 2\ne 2 9\nv 3\n"],
    ids=["not-integer", "out-of-range", "empty", "before-vertex-line"],
)
def test_bad_edge_line_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text("# a comment line\n" + text)
    result = run(capsys, "chromatic", "--file", str(path))
    assert_usage_error(result)
    assert result[2].startswith("error: line 3: ")


@pytest.mark.parametrize(
    "spec, kind",
    [("K:5", "complete hypergraph"), ("K:5:x", "complete hypergraph"), ("KG:a:2", "Kneser")],
)
def test_malformed_graph_spec_names_itself(capsys, spec, kind):
    result = run(capsys, "chromatic", "--graph", spec)
    assert_usage_error(result)
    assert f"bad {kind} spec '{spec}'" in result[2]


@pytest.mark.parametrize("p", ["0", "-1"])
def test_cd_small_p_names_p(capsys, p):
    result = run(capsys, "cd", "--graph", "K:5:2", "--p", p)
    assert_usage_error(result)
    assert result[2].strip() == f"error: --p must be at least 2, got {p}"


@pytest.mark.parametrize("argv", [["--p", "1", "--allow-nonprime"], ["--p", "1"], ["--p", "0"]])
def test_bounds_small_p_names_p(capsys, argv):
    result = run(capsys, "bounds", "--graph", "K:5:2", "--r", "2", *argv)
    assert_usage_error(result)
    assert result[2].strip() == f"error: --p must be at least 2, got {argv[1]}"


def test_xind_json_reports_the_core(capsys):
    code, out, _ = run(capsys, "xind", "--graph", "petersen", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"xind": 1, "n_max": 2, "core": 50}


def test_xind_q_poset_without_n_exits_one(capsys):
    assert_usage_error(run(capsys, "xind", "--poset", "q", "--p", "2"))


@pytest.mark.parametrize("missing", sorted(FAN_FLAGS))
def test_verify_missing_parameter_exits_one(capsys, missing):
    flags = [x for key, v in FAN_FLAGS.items() if key != missing for x in (f"--{key}", v)]
    assert_usage_error(run(capsys, "verify", "--lemma", "zp-fan", *flags))


@pytest.mark.parametrize("missing", sorted(FAN_FLAGS))
def test_verify_manifest_missing_key_exits_one(capsys, tmp_path, missing):
    entry = {key: int(v) for key, v in FAN_FLAGS.items() if key != missing}
    manifest = tmp_path / "campaign.json"
    manifest.write_text(json.dumps({"runs": [{"lemma": "zp-fan", **entry}]}))
    assert_usage_error(run(capsys, "verify", "--manifest", str(manifest)))


@pytest.mark.parametrize("content", [{}, [], {"runs": [2]}], ids=["no-runs", "list", "bad-run"])
def test_verify_malformed_manifest_exits_one(capsys, tmp_path, content):
    manifest = tmp_path / "campaign.json"
    manifest.write_text(json.dumps(content))
    assert_usage_error(run(capsys, "verify", "--manifest", str(manifest)))


def test_bounds_json_reproducible(capsys):
    argv = ("bounds", "--graph", "K:5:2", "--r", "2", "--p", "2", "--json")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0
    assert first == second


def test_nonprime_gate_opt_in(capsys):
    code, out, _ = run(
        capsys, "alt", "--graph", "K:5:2", "--p", "4", "--allow-nonprime", "--json"
    )
    assert code == 0
    assert "alt" in json.loads(out)


KG82_SEEDED = ("--graph", "KG:8:2", "--seed", "5", "--colors", "8", "--json")


def test_zigzag_seeded_kg82_output_pinned(capsys):
    code, out, _ = run(capsys, "zigzag", *KG82_SEEDED, "--t", "6")
    assert code == 0
    pinned = {
        "found": True,
        "side_a": [1, 5, 6],
        "side_b": [15, 20, 26],
        "colors": [1, 2, 3, 4, 6, 8],
    }
    assert out == json.dumps(pinned, indent=2) + "\n"


def test_colorful_seeded_kg82_output_pinned(capsys):
    code, out, _ = run(capsys, "colorful", *KG82_SEEDED, "--p", "2", "--target", "6")
    assert code == 0
    pinned = {
        "found": True,
        "parts": [[1, 3, 5], [15, 20, 26]],
        "colors": [[3, 6, 7], [2, 4, 8]],
        "total": 6,
    }
    assert out == json.dumps(pinned, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["colorful", "--p", "2", "--target", "-1"], "target must be nonnegative"),
        (["colorful", "--p", "0", "--target", "2", "--allow-nonprime"], "p must be positive"),
        (["zigzag", "--t", "-1"], "t must be nonnegative"),
    ],
    ids=["colorful-target", "colorful-p", "zigzag-t"],
)
def test_bad_witness_search_input_exits_one(capsys, argv, message):
    result = run(capsys, *argv, "--graph", "petersen")
    assert_usage_error(result)
    assert message in result[2]


MIXED_SIZES = "v 4\ne 1 2\ne 2 3 4\n"


@pytest.mark.parametrize(
    "argv",
    [["hom", "--p", "2"], ["xind", "--r", "2", "--p", "2"]],
    ids=["hom", "xind"],
)
def test_mixed_edge_sizes_exit_one(capsys, tmp_path, argv):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_SIZES)
    result = run(capsys, *argv, "--file", str(path))
    assert_usage_error(result)
    assert result[2].strip() == "error: H is not r-uniform"


def test_hom_of_an_edgeless_graph_is_empty(capsys, tmp_path):
    path = tmp_path / "edgeless.txt"
    path.write_text("v 3\n")
    code, out, _ = run(capsys, "hom", "--p", "2", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["elements"] == 0


BAD_FAN = [
    ({"alpha": "-1"}, "alpha must be at least 0, got -1"),
    ({"p": "0"}, "p must be at least 2, got 0"),
    ({"p": "1"}, "p must be at least 2, got 1"),
    ({"n": "-1"}, "n must be at least 1, got -1"),
    ({"n": "0"}, "n must be at least 1, got 0"),
    ({"m": "-1"}, "m must be at least 0, got -1"),
]
BAD_FAN_IDS = ["alpha", "p0", "p1", "n-negative", "n0", "m"]


@pytest.mark.parametrize("change, message", BAD_FAN, ids=BAD_FAN_IDS)
def test_verify_out_of_range_flag_exits_one(capsys, change, message):
    flags = [x for key, v in {**FAN_FLAGS, **change}.items() for x in (f"--{key}", v)]
    result = run(capsys, "verify", "--lemma", "zp-fan", *flags, "--allow-nonprime")
    assert_usage_error(result)
    assert result[2].strip() == f"error: {message}"


@pytest.mark.parametrize("change, message", BAD_FAN, ids=BAD_FAN_IDS)
def test_verify_out_of_range_manifest_entry_exits_one(capsys, tmp_path, change, message):
    good = {key: int(v) for key, v in FAN_FLAGS.items()}
    bad = {**good, **{key: int(v) for key, v in change.items()}}
    manifest = tmp_path / "campaign.json"
    manifest.write_text(
        json.dumps({"runs": [{"lemma": "zp-fan", **good}, {"lemma": "zp-fan", **bad}]})
    )
    result = run(capsys, "verify", "--manifest", str(manifest), "--allow-nonprime")
    assert_usage_error(result)
    assert result[2].strip() == f"error: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ["indbounds", "--graph", "K2", "--p", "2"],
        ["bounds", "--graph", "K:5:2", "--r", "2", "--p", "2"],
    ],
    ids=["indbounds", "bounds"],
)
def test_negative_depth_exits_one(capsys, argv):
    result = run(capsys, *argv, "--depth", "-1")
    assert_usage_error(result)
    assert result[2].strip() == "error: depth must be at least 0, got -1"


@pytest.mark.parametrize("colors", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["colorful", "--p", "2", "--target", "2"], ["zigzag", "--t", "2"]],
    ids=["colorful", "zigzag"],
)
def test_colors_below_one_exits_one(capsys, argv, colors):
    result = run(capsys, *argv, "--graph", "petersen", "--seed", "7", "--colors", colors)
    assert_usage_error(result)
    assert result[2].strip() == f"error: --colors must be at least 1, got {colors}"


def test_recursion_too_deep_exits_one(capsys):
    # alt_sigma recurses once per vertex
    result = run(capsys, "alt", "--graph", "C1200", "--p", "2", "--mode", "sampled")
    assert_usage_error(result)
    assert "Traceback" not in result[2]


@pytest.mark.parametrize(
    "argv, want",
    [(["chromatic", "--graph", "C1500"], "chi = 2"), (["cd", "--graph", "C1501", "--p", "2"], "cd_2 = 1")],
    ids=["chromatic", "cd"],
)
def test_long_cycles_answer(capsys, argv, want):
    assert run(capsys, *argv) == (0, want + "\n", "")


PRIME_ONLY = [
    ["box", "--graph", "K4"],
    ["hom", "--graph", "K4"],
    ["xind", "--poset", "hom", "--graph", "K4"],
    ["indbounds", "--graph", "K4"],
    ["bounds", "--graph", "K:5:2", "--r", "2"],
]


@pytest.mark.parametrize("flag", [[], ["--allow-nonprime"]], ids=["plain", "flag"])
@pytest.mark.parametrize("argv", PRIME_ONLY, ids=["box", "hom", "xind-hom", "indbounds", "bounds"])
def test_prime_only_commands_reject_nonprime_p(capsys, monkeypatch, argv, flag):
    import hyperchrom.cli

    monkeypatch.setattr(hyperchrom.cli, "_load", lambda args: pytest.fail("read the instance"))
    result = run(capsys, *argv, "--p", "4", *flag)
    assert_usage_error(result)
    assert result[2].strip() == f"error: p = 4 is not prime; {argv[0]} needs a prime p"


def test_xind_q_poset_keeps_the_nonprime_opt_in(capsys):
    argv = ("xind", "--poset", "q", "--n", "2", "--p", "4")
    code, _, err = run(capsys, *argv)
    assert code == 1 and "--allow-nonprime" in err
    assert run(capsys, *argv, "--allow-nonprime") == (0, "Xind = 2\n", "")
