from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restaking import cli, mip
from restaking.bruteforce import best_attack
from restaking.cli import _sweep_entries, main
from restaking.files import load_network, load_reward_pools
from restaking.lp import INFEASIBLE
from restaking.model import (
    InputError,
    apply_byzantine,
    byzantine_subsets,
    byzantine_weight_cap,
)
from restaking.symmetry import SweepTemplate

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SWEEPS = json.loads((GOLDEN / "presets.json").read_text(encoding="utf-8"))["sweeps"]
CHECK_CORPUS = Path(__file__).parents[1] / "perfbench" / "reference" / "check-corpus.json"

FIG_ATOMIC = {
    "validators": [{"id": "v1", "stake": 20}, {"id": "v2", "stake": 20}],
    "services": [{"id": "s", "threshold": 0.5, "prize": 5}],
    "allocations": [
        {"validator": "v1", "service": "s", "amount": 20},
        {"validator": "v2", "service": "s", "amount": 20},
    ],
}

HALF_ALLOCATED = {
    "validators": [{"id": "v", "stake": 2}],
    "services": [{"id": "s", "threshold": 1, "prize": 1}],
    "allocations": [{"validator": "v", "service": "s", "amount": 1}],
}

REWARDS_FILE = {
    "validators": [{"id": "v1", "stake": 10}, {"id": "v2", "stake": 4}],
    "services": [
        {"id": "a", "threshold": 0.5, "prize": 1, "base": False},
        {"id": "b", "threshold": 0.5, "prize": 1},
    ],
    "allocations": [
        {"validator": "v1", "service": "a", "amount": 5},
        {"validator": "v2", "service": "b", "amount": 4},
    ],
    "rewards": {"a": 2.0, "b": 1.0},
    "target_degree": 1.2,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_robust_below_boundary(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        assert main(["check", path, "--budget", "14"]) == 0
        out = capsys.readouterr().out
        assert "robust" in out and "symmetric" in out

    def test_insecure_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", HALF_ALLOCATED)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "NOT" in out
        assert "s=1.000000" in out  # witness uses the full allocation

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"validators\": [", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_engines_agree(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        assert main(["check", path, "--budget", "15", "--oracle", "--mip"]) == 1
        out = capsys.readouterr().out
        assert "symmetric" in out and "mip" in out and "brute-force" in out

    def test_asymmetric_routes_to_mip(self, tmp_path, capsys, monkeypatch):
        # The CLI looks mip.mip_check up at call time, so a wrapper installed
        # there, as perfbench's tracer installs one, sees the check.
        calls = []
        real = mip.mip_check
        monkeypatch.setattr(mip, "mip_check", lambda *args: calls.append(args) or real(*args))
        payload = json.loads(json.dumps(FIG_ATOMIC))
        payload["validators"][1]["stake"] = 25
        path = write(tmp_path, "net.json", payload)
        assert main(["check", path, "--budget", "14"]) == 0
        assert "mip" in capsys.readouterr().out
        assert len(calls) == 1

    def test_engine_discrepancy_prints_each_witness(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._ENGINES, "mip", lambda net, budget, cap: None)
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        assert main(["check", path, "--budget", "15", "--mip"]) == 2
        assert capsys.readouterr().out == (
            "engine discrepancy:\n"
            "  symmetric: not robust\n"
            "  mip: robust\n"
            "witness (symmetric):\n"
            "  attacked services: s\n"
            "  v1: s=20.000000 (cost 20.000000)\n"
            "  total cost 20.000000, prize 5.000000, margin -15.000000\n"
        )

    def test_large_stake_symmetric_witness_attacks_its_service(self, tmp_path, capsys):
        # At stakes near 1e10 a fractional share of the allocation can fall
        # short of the required stake by more than the 1e-9 tolerance; the
        # witness must still attack the service.
        validators = [f"v{i + 1}" for i in range(6)]
        payload = {
            "validators": [{"id": v, "stake": 6671001936.63} for v in validators],
            "services": [{"id": "s0", "threshold": 0.7, "prize": 1e10}],
            "allocations": [{"validator": v, "service": "s0", "amount": 193493934.1}
                            for v in validators],
        }
        path = write(tmp_path, "net.json", payload)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "witness (symmetric):\n  attacked services: s0\n" in out

    def test_fraction_flag(self, tmp_path):
        payload = {
            "validators": [{"id": "v1", "stake": 9}, {"id": "v2", "stake": 9},
                            {"id": "v3", "stake": 9}],
            "services": [{"id": s, "threshold": 1 / 3, "prize": 1} for s in "abc"],
            "allocations": [
                {"validator": f"v{i}", "service": s, "amount": 6}
                for i in (1, 2, 3)
                for s in "abc"
            ],
        }
        path = write(tmp_path, "net.json", payload)
        # one Byzantine service breaks robustness at budget 2
        assert main(["check", path, "--budget", "2"]) == 0
        assert main(["check", path, "--budget", "2", "--fraction", str(1 / 3)]) == 1

    def test_fraction_and_weight_cap_exclusive(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        assert main(["check", path, "--fraction", "0", "--weight-cap", "100"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_out_of_range_flags_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        for flags in (["--fraction", "1.5"], ["--fraction", "-0.1"], ["--fraction", "nan"],
                      ["--weight-cap", "-1"], ["--weight-cap", "nan"], ["--budget", "nan"]):
            assert main(["check", path, *flags]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    def test_weight_cap_above_total_prints_fraction_one(self, tmp_path, capsys):
        # The one service weighs prize / threshold = 10, so a cap of 100
        # admits every Byzantine set, as f = 1 does.
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        code = main(["check", path, "--budget", "14", "--weight-cap", "100"])
        out = capsys.readouterr().out
        assert "f=1.000000" in out
        assert code == main(["check", path, "--budget", "14", "--fraction", "1"])

    def test_symmetric_witness_names_file_validators(self, tmp_path, capsys):
        payload = json.loads(json.dumps(FIG_ATOMIC).replace('"v1"', '"alice"')
                             .replace('"v2"', '"bob"'))
        path = write(tmp_path, "net.json", payload)
        assert main(["check", path, "--budget", "15"]) == 1
        out = capsys.readouterr().out
        assert "witness (symmetric):" in out
        assert "  alice: s=20.000000 (cost 20.000000)" in out
        assert "v1" not in out

    def test_near_symmetric_witness_fits_each_stake(self, tmp_path, capsys):
        # The stakes differ by 5e-13 of their size, within as_symmetric's
        # tolerance; the witness takes v2's own stake, not v1's.
        stakes = {"v1": 1e10, "v2": 9999999999.995}
        payload = {
            "validators": [{"id": v, "stake": x} for v, x in stakes.items()],
            "services": [{"id": "a", "threshold": 1, "prize": 3e10}],
            "allocations": [{"validator": v, "service": "a", "amount": x}
                            for v, x in stakes.items()],
        }
        path = write(tmp_path, "net.json", payload)
        for flags in ([], ["--mip"]):
            assert main(["check", path, *flags]) == 1, flags
            out = capsys.readouterr().out
            assert "  v2: a=9999999999.995001 (cost 9999999999.995001)\n" in out

    def test_near_symmetric_files_never_exit_2(self, tmp_path, capsys):
        # Files within as_symmetric's 1e-12 tolerance of symmetric, at scales
        # up to 1e12: every check reaches a verdict and prints its witness.
        rng = random.Random(16)
        for i in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 3)
            scale = 10 ** rng.uniform(0, 12)
            stake = scale * rng.uniform(0.5, 4.0)
            noisy = lambda x: x * (1 + rng.uniform(-5e-13, 5e-13))
            stakes = {f"x{k}": noisy(stake) for k in range(n)}
            shares = {f"s{j}": rng.choice([1.0, rng.uniform(0.0, 1.0)]) for j in range(m)}
            theta = rng.uniform(0.0, 1.0)
            payload = {
                "validators": [{"id": v, "stake": x} for v, x in stakes.items()],
                "services": [{"id": s, "threshold": theta,
                              "prize": scale * rng.uniform(0.2, 2.0)} for s in shares],
                "allocations": [
                    {"validator": v, "service": s, "amount": min(x, noisy(share * stake))}
                    for v, x in stakes.items() for s, share in shares.items() if share > 0
                ],
            }
            path = write(tmp_path, f"net{i}.json", payload)
            budget = repr(rng.uniform(0, 1) * scale)
            for flags in ([], ["--mip"], ["--budget", budget, "--fraction", "0.5"]):
                assert main(["check", path, *flags]) in (0, 1), (i, flags)
                capsys.readouterr()

    def test_output_does_not_depend_on_string_hashing(self, tmp_path):
        # Sums over a set of services ran in its hash order, which moved the
        # printed prize in the last digits from one interpreter to the next.
        prizes = {"a": 232559728963.46652, "b": 363654855352.7207,
                  "c": 979139225486.8947}
        payload = {
            "validators": [{"id": "v", "stake": 1}],
            "services": [{"id": s, "threshold": 0.5, "prize": p} for s, p in prizes.items()],
            "allocations": [],
        }
        path = write(tmp_path, "net.json", payload)
        src = str(Path(__file__).parents[1] / "src")
        expected = f"prize {sum(prizes.values()):.6f}"
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
            run = subprocess.run([sys.executable, "-m", "restaking.cli", "check", path],
                                 env=env, capture_output=True, text=True)
            assert run.returncode == 1, run.stderr
            assert expected in run.stdout, (seed, run.stdout)

    def test_weight_cap_is_not_round_tripped(self, tmp_path, capsys):
        # The cap equals s1's weight (prize / threshold) exactly; as a
        # fraction and back it came out 3e-8 smaller, which dropped the one
        # Byzantine choice (s1) that breaks the network.
        stake, w1, w2 = 338004702.9611585, 240955902.90675858, 291146400.16319984
        payload = {
            "validators": [{"id": "v1", "stake": stake}, {"id": "v2", "stake": stake}],
            "services": [
                {"id": "s1", "threshold": 0.5, "prize": 120477951.45337929},
                {"id": "s2", "threshold": 0.5, "prize": 194097600.1087999},
            ],
            "allocations": [
                {"validator": v, "service": s, "amount": w}
                for v in ("v1", "v2") for s, w in (("s1", w1), ("s2", w2))
            ],
        }
        path = write(tmp_path, "net.json", payload)
        for flags in ([], ["--mip", "--oracle"]):
            assert main(["check", path, "--weight-cap", repr(w1), *flags]) == 1, flags
            out = capsys.readouterr().out
            assert "byzantine services: s1" in out

    def test_dump_mip(self, tmp_path):
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        dump = tmp_path / "program.lp"
        assert main(["check", path, "--dump-mip", str(dump)]) == 0
        text = dump.read_text(encoding="utf-8")
        # The program is divided by the largest stake or prize, 20 here.
        scale, sense = text.splitlines()[:2]
        assert scale == "\\ scale: 20" and sense == "Maximize"
        assert "capped_v1_" in text and "deficit_s_" in text and "Binaries" in text

    def test_oversized_asymmetric_network_is_a_capability_error(self, tmp_path, capsys):
        validators = [{"id": f"v{i}", "stake": 10 + i} for i in range(25)]
        services = [{"id": f"s{j}", "threshold": 0.5, "prize": 1} for j in range(25)]
        allocations = [
            {"validator": f"v{i}", "service": f"s{i}", "amount": 5} for i in range(25)
        ]
        path = write(tmp_path, "net.json", {
            "validators": validators, "services": services, "allocations": allocations,
        })
        assert main(["check", path]) == 2
        assert "too large" in capsys.readouterr().err

    def test_oracle_guard_on_large_networks(self, tmp_path, capsys):
        validators = [{"id": f"v{i}", "stake": 10} for i in range(9)]
        services = [{"id": "s", "threshold": 0.5, "prize": 1}]
        path = write(tmp_path, "net.json", {
            "validators": validators, "services": services, "allocations": [],
        })
        assert main(["check", path, "--oracle"]) == 2
        assert "brute-force" in capsys.readouterr().err

    def test_nan_stake_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(FIG_ATOMIC).replace('"stake": 20', '"stake": NaN', 1),
            encoding="utf-8",
        )
        assert main(["check", str(path), "--mip"]) == 2
        assert "NaN" in capsys.readouterr().err

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            mip, "solve_mip", lambda problem, **_: mip.MipSolution(status=INFEASIBLE)
        )
        path = write(tmp_path, "net.json", FIG_ATOMIC)
        assert main(["check", path, "--mip"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_comma_in_validator_id(self, tmp_path, capsys):
        # The MIP witness is read off its columns, not parsed from names.
        payload = {
            "validators": [{"id": "a,b", "stake": 2}, {"id": "c", "stake": 3}],
            "services": [{"id": "s", "threshold": 1, "prize": 1}],
            "allocations": [{"validator": "a,b", "service": "s", "amount": 1}],
        }
        path = write(tmp_path, "net.json", payload)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "witness (mip)" in out and "a,b: s=1.000000" in out

    def test_oracle_solves_each_class_choice_once(self, tmp_path, monkeypatch):
        # Six identical services at fraction 1/2: 42 Byzantine subsets of at
        # most three services, but only four counts (0 to 3) of them.
        validators = [f"v{i}" for i in range(1, 7)]
        services = [f"s{j}" for j in range(1, 7)]
        payload = {
            "validators": [{"id": v, "stake": 10} for v in validators],
            "services": [{"id": s, "threshold": 0.5, "prize": 2} for s in services],
            "allocations": [{"validator": v, "service": s, "amount": 1}
                            for v in validators for s in services],
        }
        solved = []

        def counted(net):
            solved.append(net)
            return best_attack(net)

        monkeypatch.setattr(cli, "best_attack", counted)
        path = write(tmp_path, "net.json", payload)
        assert main(["check", path, "--fraction", "0.5", "--oracle"]) == 0
        assert len(solved) == 4


class TestCheckCorpus:
    """`restaking check` gives the stored verdicts of the benchmark's check
    corpus, run as the benchmark runs it: every stored (budget, fraction)
    setting, with the brute-force oracle on networks of at most 4 x 4."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return json.loads(CHECK_CORPUS.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("key", [f"net{i:02d}" for i in range(10)])
    def test_exit_codes_match_reference(self, tmp_path, corpus, key):
        net = corpus["networks"][key]
        path = write(tmp_path, f"{key}.json", net)
        oracle = len(net["validators"]) <= 4 and len(net["services"]) <= 4
        settings = [(op_id.split(":"), ref["outcome"])
                    for op_id, ref in corpus["ops"].items()
                    if op_id.startswith(f"{key}:")]
        assert len(settings) == 6
        for (_, budget, fraction), outcome in settings:
            argv = ["check", path, "--budget", budget[1:], "--fraction", fraction[1:]]
            assert main(argv + ["--oracle"] * oracle) == outcome, (key, budget, fraction)


class TestSweep:
    def test_fig3_preset_writes_three_files(self, tmp_path, capsys):
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "fig3", "degree_step": 3.0, "sizes": [10, 11, 12]}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["figure3_n10.csv", "figure3_n11.csv", "figure3_n12.csv"]
        assert "rows" in capsys.readouterr().out

    def test_fig6_preset_columns(self, tmp_path):
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "fig6", "f_grid": [0.0, 1 / 15]}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        header = (out / "figure6.csv").read_text().splitlines()[0]
        assert header == (
            "robustness_threshold,min_budget_base_only,"
            "min_budget_no_base,min_budget_total"
        )

    def test_default_fraction_grids_stop_at_one(self, tmp_path):
        # The default grids are k/n; with n = 4 they end at 4/4, since a
        # larger fraction admits the same Byzantine sets as 1.
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "fig5", "n": 4, "degrees": [1.0]},
                        {"name": "fig6", "n": 4}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        for name in ("figure5.csv", "figure6.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert [float(row.split(",")[0]) for row in rows] == [k / 4 for k in range(5)]

    def test_empty_sweep_list_warns(self, tmp_path, capsys):
        config = write(tmp_path, "sweeps.json", {"sweeps": []})
        assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 0
        assert "warning" in capsys.readouterr().err

    def test_custom_security_sweep(self, tmp_path):
        config = write(
            tmp_path, "sweeps.json",
            {
                "sweeps": [
                    {
                        "name": "custom",
                        "kind": "security",
                        "file": "tiny.csv",
                        "n": 4,
                        "m": 4,
                        "thresholds": [0.5],
                        "degrees": [1.0, 2.0],
                    }
                ]
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        lines = (out / "tiny.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_custom_sweep_defaults_degrees(self, tmp_path):
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "custom", "kind": "security", "file": "d.csv",
                         "n": 2, "m": 2, "thresholds": [0.5]}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        lines = (out / "d.csv").read_text().splitlines()
        assert lines[1].startswith("1.000000,") and lines[-1].startswith("2.000000,")

    def test_fig7_preset_agrees(self, tmp_path):
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "fig7", "budgets": [1], "degrees": [2.0],
                         "f_values": [1 / 3]}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        row = (out / "figure7_budget_1.csv").read_text().splitlines()[1]
        assert row.endswith(",true")

    def test_fig8_unsatisfiable_cell_is_nan(self, tmp_path):
        config = write(
            tmp_path, "sweeps.json",
            {"sweeps": [{"name": "fig8", "budgets": [0], "degrees": [1.5],
                         "f_grid": [2 / 3]}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        name = "figure8_y_stake_base_service_10_0.50_loss_threshold_0.csv"
        assert (out / name).read_text().splitlines()[1] == "1.500000,nan"
        # Slashing two services wipes every stake, so even a huge stake fails.
        net = SweepTemplate(3, 3, 1 / 3, 1.0, 10.0, 0.5).build_network(1e6, 1.5)
        cap = byzantine_weight_cap(net, 2 / 3)
        assert any(
            best_attack(apply_byzantine(net, subset))[0] >= 0
            for subset in byzantine_subsets(net, cap)
        )

    def test_malformed_configs_rejected(self, tmp_path, capsys):
        for payload in ([], {"sweeps": {"name": "fig5"}}, {"sweeps": ["fig5"]},
                        {"sweeps": [{"name": "fig5", "degrees": "abc"}]},
                        {"sweeps": [{"name": "fig5", "degrees": [1.0, "2"]}]},
                        {"sweeps": [{"name": "fig7", "budgets": [True]}]},
                        {"sweeps": [{"name": "fig5", "n": "abc"}]},
                        {"sweeps": [{"name": "fig5", "n": 0}]},
                        {"sweeps": [{"name": "fig3", "sizes": [2.5], "degree_step": 3}]},
                        {"sweeps": [{"name": "fig4", "degree_max": "x"}]},
                        {"sweeps": [{"name": "fig6", "stakes": [1.0]}]},
                        {"sweeps": [{"name": "custom", "kind": "security", "n": 3,
                                     "thresholds": [0.5]}]},
                        {"sweeps": [{"name": "custom", "kind": "robustness", "n": 3,
                                     "m": 3, "threshold": 0.5, "budgets": [0],
                                     "f_grid": [0], "base": [10]}]},
                        {"sweeps": [{"name": "custom", "kind": "failure", "n": 3,
                                     "m": 3, "threshold": 0.5, "stake": 1,
                                     "degrees": [1.0], "f_grid": [0], "file": 3}]}):
            config = write(tmp_path, "sweeps.json", payload)
            assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2, payload
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        # A step that never advances the degree grid is refused before any
        # sweep runs (checked without running one).
        with pytest.raises(InputError, match="degree_step"):
            _sweep_entries({"sweeps": [{"name": "fig3", "degree_step": 0}]})

    @pytest.mark.parametrize(
        "entry", GOLDEN_SWEEPS, ids=[e.get("kind", e["name"]) for e in GOLDEN_SWEEPS]
    )
    def test_preset_matches_golden_csv(self, entry, tmp_path):
        # Reduced grids of every preset; the expected CSVs in tests/golden
        # were written before the closed form was rebuilt on one generator.
        config = write(tmp_path, "sweeps.json", {"sweeps": [entry]})
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out)]) == 0
        written = sorted(out.iterdir())
        assert written
        for path in written:
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        config = write(tmp_path, "sweeps.json", {"sweeps": [{"name": "zzz"}]})
        assert main(["sweep", config, "--out", str(tmp_path)]) == 2
        assert "unknown sweep preset" in capsys.readouterr().err


class TestIncentives:
    def test_uniform_matrix(self, tmp_path, capsys):
        payload = {
            "validators": [{"id": "v1", "stake": 10}, {"id": "v2", "stake": 10}],
            "services": [
                {"id": "a", "threshold": 0.5, "prize": 1},
                {"id": "b", "threshold": 0.5, "prize": 1},
            ],
            "allocations": [],
            "rewards": {"a": 1.0, "b": 1.0},
            "target_degree": 1.0,
        }
        path = write(tmp_path, "net.json", payload)
        assert main(["incentives", path]) == 0
        out = capsys.readouterr().out
        assert out.count("5.000000") >= 4
        assert "1.000000" in out  # degrees equal the target

    def test_precondition_violation_names_service(self, tmp_path, capsys):
        payload = {
            "validators": [{"id": "v", "stake": 10}],
            "services": [
                {"id": "big", "threshold": 0.5, "prize": 1},
                {"id": "small", "threshold": 0.5, "prize": 1},
            ],
            "allocations": [],
            "rewards": {"big": 100.0, "small": 1.0},
            "target_degree": 1.5,
        }
        path = write(tmp_path, "net.json", payload)
        assert main(["incentives", path]) == 2
        assert "big" in capsys.readouterr().err

    def test_verify_flag(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", dict(REWARDS_FILE, allocations=[]))
        assert main(["incentives", path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "max best-response gain" in out
        assert "best response: a=" in out

    def test_verify_takes_no_argument(self, tmp_path, capsys):
        path = write(tmp_path, "net.json", REWARDS_FILE)
        with pytest.raises(SystemExit) as exit_:
            main(["incentives", path, "--verify", "50"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: 50" in capsys.readouterr().err


def _paths(node, prefix=()):
    """Every key path below a parsed JSON node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


DROP = "<drop>"  # the mutation that deletes a field

MUTANT_VALUES = st.one_of(
    st.just(DROP),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from(["v1", "v2", "a", "b", "zz"]),  # known and unknown ids
    st.integers(-3, 12),
    st.sampled_from([10**400, -(10**400), 10**308, 2**1023, 1e308, -1, -0.5]),
    st.floats(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "stake", "a"]), st.integers(0, 3), max_size=2),
)


@settings(max_examples=150, deadline=None)
@example([(("validators",), 5)])
@example([(("allocations",), 7)])
@example([(("validators",), [1])])
@example([(("allocations", 0, "validator"), [1])])
@example([(("validators", 0, "stake"), 10**400)])
@example([(("services", 0, "base"), "yes")])
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_paths(REWARDS_FILE))), MUTANT_VALUES),
        min_size=1,
        max_size=3,
    )
)
def test_malformed_input_exits_2(mutations):
    """A mutant the loader rejects exits 2 with a message; no mutant raises."""
    doc = json.loads(json.dumps(REWARDS_FILE))
    for path, value in mutations:
        parent = doc
        for key in path[:-1]:
            if not _has(parent, key):
                break
            parent = parent[key]
        else:
            if _has(parent, path[-1]):
                if value == DROP:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for loader, argv in (
            (load_network, ["check", str(path)]),
            (load_reward_pools, ["incentives", str(path), "--verify"]),
        ):
            try:
                loader(path)
                rejected = False
            except InputError:
                rejected = True
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            if rejected:
                assert code == 2 and err.getvalue().startswith("error: ")
