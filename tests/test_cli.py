import ast
import contextlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qcurve
from qcurve import cli, cmtables
from qcurve.cli import factor_string, main
from qcurve.errors import DomainError
from qcurve.fields import (
    TRIAL_DIVISION_BOUND,
    _trial_blocks,
    factorize,
    is_probable_prime,
    legendre,
)
from qcurve.selftest import EXAMPLE_D2, EXAMPLE_D5

from conftest import MERSENNE_127
from test_families import MUL_COUNTS, MULTIEXP2_COUNTS

EX1, EX2 = (
    ["--d", d, "--p", str(MERSENNE_127), "--delta", "-1", "--s", str(example["s"]), "--trace", str(example["trace"])]
    for d, example in (("2", EXAMPLE_D2), ("5", EXAMPLE_D5))
)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out.splitlines()


def parse_plain(line):
    return dict(part.split("=", 1) for part in shlex.split(line))


class TestInfo:
    def test_small_prime_oracle_report(self, capsys):
        rc, lines = run(capsys, ["info", "--d", "2", "--p", "13", "--delta", "2", "--s", "1"])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["status"] == "ok"
        assert rec["order"] == "188"
        assert rec["eps"] == "1"
        assert "cm_fiber" in rec
        assert "lambda" in rec and "b1" in rec

    def test_example_parameters_report(self, capsys):
        rc, lines = run(capsys, ["info", *EX1])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["status"] == "ok"
        assert rec["basis_variant"] == "cofactor2_d2"
        assert rec["basis_bitlength"] == "127"
        assert rec["order_factors"].startswith("2*")
        assert rec["order_factors"].endswith("(probable_prime)")
        assert rec["twist_order_factors"].endswith("(probable_prime)")

    def test_no_trace_large_prime_omits_orders(self, capsys):
        rc, lines = run(
            capsys,
            ["info", "--d", "2", "--p", str(MERSENNE_127), "--delta", "-1", "--s", "5"],
        )
        assert rc == 0
        rec = parse_plain(lines[0])
        assert "order" not in rec and "r" not in rec
        assert rec["status"] == "ok"

    def test_wrong_trace_cross_check(self, capsys):
        rc, lines = run(
            capsys,
            ["info", "--d", "2", "--p", "13", "--delta", "2", "--s", "1", "--trace", "4"],
        )
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["status"] == "error"
        assert "contradicts" in rec["message"]

    @pytest.mark.parametrize("d,s,variant,bound", [
        ("5", "2", "prime_order", "4"),  # ceil_log2(p + eps), order 139
        ("2", "2", "cofactor4_d2", "3"),  # ceil_log2(p + eps) - 1, order 2^2*3*11
        ("3", "3", "cofactor3_d3", "4"),  # ceil_log2 of b2's larger coordinate, order 3*47
        ("3", "1", "reduced_lattice", "2"),  # the basis itself, order 3^2*13
    ])
    def test_basis_variant_by_group_structure(self, capsys, d, s, variant, bound):
        rc, lines = run(capsys, ["info", "--d", d, "--p", "11", "--delta", "-1", "--s", s])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["basis_variant"] == variant
        assert rec["bound_bitlength"] == bound

    @pytest.mark.parametrize("p,delta,s,b2,bits", [
        ("7", "3", "3", "(-4,5)", "3"),  # b2's second coordinate 2(p + eps)/3 - eps*|r| = 5
        ("43", "2", "17", "(32,33)", "6"),  # 33 against p + eps - 2|r| = 32
    ])
    def test_cofactor3_bound_covers_the_basis(self, capsys, p, delta, s, b2, bits):
        rc, lines = run(capsys, ["info", "--d", "3", "--p", p, "--delta", delta, "--s", s])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["basis_variant"] == "cofactor3_d3"
        assert (rec["b2"], rec["basis_bitlength"], rec["bound_bitlength"]) == (b2, bits, bits)

    @pytest.mark.parametrize("d,s,message", [
        ("7", "0", "no dominant cyclic subgroup"),
        ("3", "2", "gcd"),
    ])
    def test_no_decomposition_is_a_structure_error(self, capsys, d, s, message):
        rc, lines = run(capsys, ["info", "--d", d, "--p", "11", "--delta", "-1", "--s", s])
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["error"] == "structure"
        assert message in rec["message"]

    def test_prime_order_paper_instance(self, capsys):
        rc, lines = run(capsys, ["info", *EX2])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["basis_variant"] == "prime_order"
        assert rec["bound_bitlength"] == "127"

    def test_json_mode(self, capsys):
        rc, lines = run(capsys, ["info", "--json", *EX1])
        assert rc == 0
        rec = json.loads(lines[0])
        assert rec["basis_bitlength"] == 127
        assert rec["d"] == 2

    def test_deterministic(self, capsys):
        _, first = run(capsys, ["info", "--d", "3", "--p", "11", "--delta", "-1", "--s", "2"])
        _, second = run(capsys, ["info", "--d", "3", "--p", "11", "--delta", "-1", "--s", "2"])
        assert first == second

    def test_supersingular_reported_without_basis(self, capsys):
        rc, lines = run(capsys, ["info", "--d", "5", "--p", "11", "--delta", "-1", "--s", "1"])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["supersingular"] == "true"
        assert rec["r"] == "0"
        assert "lambda" not in rec

    def test_supersingular_decompose_is_an_error(self, capsys):
        rc, lines = run(
            capsys,
            ["decompose", "--d", "5", "--p", "11", "--delta", "-1", "--s", "1", "--m", "3"],
        )
        assert rc == 1
        assert parse_plain(lines[0])["error"] == "supersingular"


class TestDecompose:
    def test_zero_scalar(self, capsys):
        rc, lines = run(
            capsys,
            ["decompose", "--d", "2", "--p", "13", "--delta", "2", "--s", "1", "--m", "0"],
        )
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["a"] == "0" and rec["b"] == "0"
        assert rec["multiexp_check"] == "ok"

    def test_exhaustive_minimality(self, capsys):
        rc, lines = run(
            capsys,
            [
                "decompose", "--d", "2", "--p", "13", "--delta", "2",
                "--s", "1", "--m", "5", "--exhaustive",
            ],
        )
        assert rc == 0
        rec = parse_plain(lines[0])
        assert rec["exhaustive_minimal"].startswith("all")

    def test_exhaustive_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "first_nonminimal", lambda basis: 3)
        rc, lines = run(
            capsys,
            [
                "decompose", "--d", "2", "--p", "13", "--delta", "2",
                "--s", "1", "--m", "5", "--exhaustive",
            ],
        )
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["multiexp_check"] == "ok"
        assert rec["exhaustive_minimal"] == "FAIL at m=3"
        assert rec["status"] == "error"

    def test_seed_picks_the_check_point(self, capsys):
        for seed in ("0", "7"):
            rc, lines = run(
                capsys,
                ["decompose", "--d", "2", "--p", "13", "--delta", "2", "--s", "1", "--m", "5",
                 "--seed", seed],
            )
            assert rc == 0
            assert parse_plain(lines[0])["multiexp_check"] == "ok"

    def test_cryptographic_scalar_is_short(self, capsys):
        m = str((1 << 252) + 12345)
        rc, lines = run(capsys, ["decompose", *EX1, "--m", m])
        assert rc == 0
        rec = parse_plain(lines[0])
        assert int(rec["norm_bitlength"]) <= 127
        assert int(rec["bound_bitlength"]) == 127

    def test_exhaustive_is_guarded_at_large_scale(self, capsys):
        """--exhaustive above the oracle bound is refused once the field is
        checked, before any other work."""
        rc, lines = run(capsys, ["decompose", *EX1, "--m", "7", "--exhaustive"])
        assert rc == 1
        assert len(lines) == 1
        rec = parse_plain(lines[0])
        assert rec["status"] == "error"
        assert rec["error"] == "oracle_guard"

    @pytest.mark.parametrize("p,delta,error,message", [
        ("91", "2", "not_prime", "modulus 91 has the factor 7"),
        (str(2**130), "-1", "modulus_range", "modulus exceeds 128 bits"),
        ("67", "-1", "oracle_guard", "--exhaustive requires p <= 64"),
    ], ids=["composite", "out_of_range", "prime"])
    def test_exhaustive_checks_the_modulus_first(self, capsys, p, delta, error, message):
        """A modulus that is not a field's is refused as such, with or
        without --exhaustive; only a prime above the oracle bound meets the
        --exhaustive guard."""
        argv = ["decompose", "--d", "2", "--p", p, "--delta", delta, "--s", "1", "--m", "3", "--exhaustive"]
        rc, lines = run(capsys, argv)
        assert rc == 1
        assert len(lines) == 1
        rec = parse_plain(lines[0])
        assert (rec["error"], rec["message"]) == (error, message)

    def test_requires_trace_at_large_scale(self, capsys):
        rc, lines = run(
            capsys,
            [
                "decompose", "--d", "2", "--p", str(MERSENNE_127), "--delta", "-1",
                "--s", "28106", "--m", "7",
            ],
        )
        assert rc == 1
        assert parse_plain(lines[0])["status"] == "error"


class TestSearch:
    def test_sweep_counts(self, capsys):
        rc, lines = run(capsys, ["search", "--d", "2", "--p", "13", "--delta", "2"])
        assert rc == 0
        records = [parse_plain(line) for line in lines]
        assert records[-1]["records"] == "13"
        for rec in records[:-1]:
            assert rec["status"] == "ok"
            assert int(rec["order"]) + int(rec["twist_order"]) == 2 * (13**2 + 1)

    def test_cofactor_filter(self, capsys):
        rc, lines = run(
            capsys,
            ["search", "--d", "2", "--p", "13", "--delta", "2", "--cofactor", "2",
             "--twist-cofactor", "2"],
        )
        assert rc == 0
        records = [parse_plain(line) for line in lines[:-1]]
        for rec in records:
            assert rec["order_factors"].startswith("2*")
            assert rec["twist_order_factors"].startswith("2*")

    def test_empty_result_is_ok(self, capsys):
        rc, lines = run(
            capsys,
            ["search", "--d", "2", "--p", "11", "--delta", "-1", "--cofactor", "1048573"],
        )
        assert rc == 0
        assert parse_plain(lines[-1])["records"] == "0"

    @pytest.mark.parametrize(
        "flags",
        [["--cofactor", "0"], ["--cofactor", "-2"], ["--twist-cofactor", "0"],
         ["--twist-cofactor", "-2"], ["--cofactor", "2", "--twist-cofactor", "0"],
         ["--cofactor", "-2", "--twist-cofactor", "4"]],
    )
    def test_nonpositive_cofactor_is_rejected(self, capsys, flags):
        rc, lines = run(capsys, ["search", "--d", "2", "--p", "11", "--delta", "-1", *flags])
        assert rc == 1
        assert len(lines) == 1  # rejected before the sweep emits anything
        rec = parse_plain(lines[0])
        assert rec["status"] == "error"
        assert rec["error"] == "cofactor"

    def test_guard(self, capsys):
        # The oracle refuses the first member, with its own message.
        rc, lines = run(capsys, ["search", "--d", "2", "--p", str(MERSENNE_127), "--delta", "-1"])
        assert rc == 1
        assert len(lines) == 1
        rec = parse_plain(lines[0])
        assert rec["error"] == "oracle_guard"
        assert rec["message"].startswith("exhaustive enumeration requires p <= 64")

    @pytest.mark.parametrize(
        "d,p,delta",
        [(5, 13, 2), (5, 11, 2), (7, 7, 3)],
    )
    def test_field_without_the_family(self, capsys, d, p, delta):
        """As info does, search reports the builder's residue-class error."""
        argv = ["--d", str(d), "--p", str(p), "--delta", str(delta)]
        rc, lines = run(capsys, ["search", *argv])
        assert rc == 1
        assert len(lines) == 1
        rec = parse_plain(lines[0])
        assert (rec["status"], rec["error"]) == ("error", "residue_class")
        rc, info_lines = run(capsys, ["info", *argv, "--s", "1"])
        assert rc == 1
        assert parse_plain(info_lines[0])["message"] == rec["message"]


class TestTimings:
    STAGES = ["t_field_ms", "t_build_ms", "t_r_ms", "t_factor_ms", "t_basis_ms"]
    OPS = ["n_dbl_multiexp", "n_add_multiexp", "n_dbl_mul", "n_add_mul"]

    def _pair(self, capsys, argv):
        """The last JSON record without and with --timings."""
        records = []
        for extra in ([], ["--timings"]):
            rc, lines = run(capsys, argv + ["--json"] + extra)
            assert rc == 0
            records.append(json.loads(lines[-1]))
        return records

    def _check(self, plain, timed, stages):
        assert list(timed)[: len(plain)] == list(plain)
        assert {k: timed[k] for k in plain} == plain
        assert list(timed)[len(plain):] == stages
        assert all(timed[k] >= 0 for k in stages)

    def test_info(self, capsys):
        plain, timed = self._pair(capsys, ["info", *EX1])
        self._check(plain, timed, self.STAGES)

    def test_decompose(self, capsys):
        """multiexp2 is checked against Curve.mul at every p, and both are timed."""
        for instance in (["--d", "2", "--p", "13", "--delta", "2", "--s", "1"], EX1):
            plain, timed = self._pair(capsys, ["decompose", *instance, "--m", "7"])
            assert plain["multiexp_check"] == "ok"
            stages = self.STAGES + ["t_decompose_ms", "t_psi_ms", "t_multiexp_ms", "t_mul_ms"] + self.OPS
            self._check(plain, timed, stages)

    def test_decompose_op_counts(self, capsys):
        """The group-op counts read off the recodings are the loop's pinned
        counts on the d=2 paper scalar of TestOpCounts."""
        rc, lines = run(capsys, ["info", *EX1, "--json"])
        assert rc == 0
        n = json.loads(lines[-1])["subgroup_order"]
        m = random.Random(7).randrange(n)
        rc, lines = run(capsys, ["decompose", *EX1, "--m", str(m), "--json", "--timings"])
        assert rc == 0
        rec = json.loads(lines[-1])
        assert rec["m"] == m
        ops = [rec[k] for k in self.OPS]
        pins = [MULTIEXP2_COUNTS["dbl"], MULTIEXP2_COUNTS["madd"], MUL_COUNTS["dbl"], MUL_COUNTS["madd"]]
        assert ops == pins

    def test_off_by_default(self, capsys):
        rc, lines = run(capsys, ["info", *EX1])
        assert rc == 0
        assert not any(k.startswith("t_") for k in parse_plain(lines[-1]))


class TestErrors:
    def test_square_delta_is_domain_error(self, capsys):
        rc, lines = run(capsys, ["info", "--d", "2", "--p", "13", "--delta", "3", "--s", "1"])
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["status"] == "error"
        assert rec["error"] == "not_inert"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--d", "2", "--p", "13"])
        assert exc.value.code == 2

    def test_decompose_requires_m(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--d", "2", "--p", "13", "--delta", "2", "--s", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["info", "--d", "2", "--p", "13", "--delta", "2", "--s", "1", "--seed", "3"],
        ["search", "--d", "2", "--p", "13", "--delta", "2", "--seed", "3"],
    ])
    def test_seed_only_on_decompose(self, argv):
        # Only decompose derives a point from the seed.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_composite_modulus(self, capsys):
        rc, lines = run(capsys, ["info", "--d", "2", "--p", "91", "--delta", "2", "--s", "1"])
        assert rc == 1
        assert parse_plain(lines[0])["error"] == "not_prime"

    def test_composite_mersenne_modulus(self, capsys):
        # 2^67 - 1 has no factor up to 37; Lucas-Lehmer refutes it.
        rc, lines = run(capsys, ["info", "--d", "2", "--p", str(2**67 - 1), "--delta", "-1", "--s", "1"])
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["error"] == "not_prime"
        assert rec["message"] == f"modulus {2**67 - 1} failed Lucas-Lehmer"

    def test_decompose_without_trace_above_oracle_bound(self, capsys):
        # Above p = 64 no trace can be counted, so decompose needs --trace;
        # the refusal is the oracle's own, as in search.
        rc, lines = run(capsys, ["decompose", "--d", "2", "--p", "67", "--delta", "-1", "--s", "1", "--m", "7"])
        assert rc == 1
        rec = parse_plain(lines[0])
        assert rec["error"] == "oracle_guard"
        assert rec["message"] == "exhaustive enumeration requires p <= 64, got 67"

    @pytest.mark.parametrize("p,message", [
        ("3", "modulus must be a prime greater than 3, got 3"),
        (str(2**128 + 51), "modulus exceeds 128 bits"),
    ])
    def test_modulus_out_of_range(self, capsys, p, message):
        rc, lines = run(capsys, ["info", "--d", "2", "--p", p, "--delta", "-1", "--s", "1"])
        assert rc == 1
        rec = parse_plain(lines[0])
        assert (rec["error"], rec["message"]) == ("modulus_range", message)


class TestRobustness:
    """Seeded bad argument lists: every run exits 0, 1 or 2 without a
    traceback, and every exit-1 record names its DomainError subclass."""

    PRIMES = [q for q in range(5, 65) if is_probable_prime(q)]
    # Moduli outside the supported range or not prime, and primes above the
    # oracle's reach.
    EDGE_MODULI = [3, 2, 1, 0, -7, 4, 9, 91, 67, 2**67 - 1, MERSENNE_127, 2**128 + 51, 2**130]
    CASES = 300

    @staticmethod
    def argv(rng, p):
        command = rng.choice(["info", "decompose", "search"])
        argv = [command, "--p", str(p), "--d", str(rng.choice([2, 3, 5, 7, 2, 3, 5, 7, 1, 4]))]
        if p in TestRobustness.PRIMES and rng.random() < 0.6:
            delta = rng.choice([x for x in range(-1, p) if legendre(x, p) == -1])
        else:
            delta = rng.randrange(-8, max(p, 8) + 8)
        argv += ["--delta", str(delta)]
        if command != "search":
            argv += ["--s", str(rng.randrange(-3, max(p, 3) + 3))]
            if rng.random() < 0.3:
                bound = 2 * abs(p) + 3
                argv += ["--trace", str(rng.randrange(-bound, bound + 1))]
        if command == "decompose":
            argv += ["--m", str(rng.randrange(-(2**40), 2**40)), "--seed", str(rng.randrange(-5, 50))]
            if rng.random() < 0.2:
                argv.append("--exhaustive")
        if command == "search":
            for flag in ("--cofactor", "--twist-cofactor"):
                if rng.random() < 0.3:
                    argv += [flag, str(rng.randrange(-2, 9))]
        if rng.random() < 0.05:
            del argv[rng.randrange(1, len(argv))]  # a missing flag or value
        if rng.random() < 0.5:
            argv.append("--json")
        return argv

    @staticmethod
    def last_record(text, json_mode):
        line = text.splitlines()[-1]
        return json.loads(line) if json_mode else parse_plain(line)

    def test_bad_argument_lists(self):
        named = {cli._error_code(cls()) for cls in DomainError.__subclasses__()}
        rng = random.Random(31)
        seen = set()
        for i in range(self.CASES):
            p = self.EDGE_MODULI[i // 5 % len(self.EDGE_MODULI)] if i % 5 == 0 else rng.choice(self.PRIMES)
            argv = self.argv(rng, p)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            assert rc in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            if rc == 1:
                rec = self.last_record(out.getvalue(), "--json" in argv)
                assert rec["status"] == "error", argv
                assert rec.get("error") in named, (argv, rec)
            seen.add(rc)
        assert seen == {0, 1, 2}


class TestImports:
    def test_cli_imports_no_private_name(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        private = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qcurve"))
            for alias in node.names
            if alias.name.startswith("_") or any(part.startswith("_") for part in (node.module or "").split("."))
        ]
        assert private == []


class TestTables:
    def test_dump_is_complete(self, capsys):
        rc, lines = run(capsys, ["tables", "--json"])
        assert rc == 0
        records = [json.loads(line) for line in lines]
        kinds = {}
        for rec in records:
            kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
        assert kinds["fiber"] == 13 + 13 + 2 + 6
        assert kinds["class_number_1"] == 13
        assert kinds["class_number_2"] == 29


class TestProcess:
    """The module run as a program, in a child interpreter."""

    @staticmethod
    def spawn(argv, **kwargs):
        env = dict(os.environ, PYTHONPATH=str(Path(qcurve.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, "-m", "qcurve.cli", *argv], env=env, timeout=120, **kwargs)

    def test_module_entry_point(self):
        proc = self.spawn(["tables", "--json"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len([json.loads(line) for line in proc.stdout.splitlines()]) == 34 + 13 + 29

    def test_closed_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.spawn(["tables"], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""


# The checks of qcurve selftest and their details.  The details of
# group_law, models, decompose_minimality and cm_tables count the work done,
# so a change to those grids shows here.
SELFTEST_CHECKS = [
    ("field_axioms", "p=13 exhaustive, p=2^127-1 randomised"),
    ("group_law", "32 points over F_25, 60 over F_49"),
    ("twist_counts", "p in {5,7,11,13}"),
    ("conjugate_composition", "all degrees"),
    ("family_identities", "p=11, s in {1,2}"),
    ("family_proof", "d=2,3,5,7 identically in s and delta"),
    ("models", "p=7 s=0, tripling s=0"),
    ("decompose_minimality", "all 47 scalars"),
    ("j_count", "p in {11,17,19}"),
    ("cm_detection", "exhaustive sweeps"),
    ("cm_tables", "93 fiber reductions"),
    ("gls_case", "p=11"),
    ("example_degree2", "128-bit twist-secure instance"),
    ("example_degree5", "prime-order curve and twist"),
    ("example_degree3", "conjugate codomain bit-exact"),
]


class TestSelftest:
    @pytest.fixture(scope="class")
    def corrupted_run(self):
        """(exit code, JSON records) of one selftest --json with a corrupted
        TABLE1 entry, shared by the tests that read the failing battery."""
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setitem(cmtables.TABLE1, (8, 1), 20**3 + 1)
            rc = main(["selftest", "--json"])
        return rc, [json.loads(line) for line in out.getvalue().splitlines()]

    def test_green_build_passes(self, capsys):
        rc, lines = run(capsys, ["selftest"])
        assert rc == 0
        records = [parse_plain(line) for line in lines]
        assert [(rec["check"], rec["detail"]) for rec in records[:-1]] == SELFTEST_CHECKS
        assert {rec["status"] for rec in records[:-1]} == {"pass"}
        assert records[-1]["failures"] == "0"

    def test_corrupted_table_fails_by_name(self, corrupted_run):
        """The failing records, as the text output prints them, name a CM
        check."""
        rc, records = corrupted_run
        assert rc == 1
        text = io.StringIO()
        for rec in records:
            cli._emit(rec, False, text)
        failed = [parse_plain(line) for line in text.getvalue().splitlines() if "status=fail" in line]
        assert any(rec["check"] in ("cm_tables", "cm_detection") for rec in failed)

    def test_every_check_is_timed(self, corrupted_run):
        rc, records = corrupted_run
        assert rc == 1
        checks = [rec for rec in records if "check" in rec]
        assert len(checks) == 15
        assert {rec["status"] for rec in checks} == {"pass", "fail"}
        assert all(rec["elapsed_ms"] >= 0 for rec in checks)


class TestEmit:
    """Text records quote a value exactly when some character of it is
    whitespace by str.isspace(), which _emit tests with one compiled search."""

    def test_search_is_str_isspace_on_every_character(self):
        every = "".join(map(chr, range(0x110000)))
        assert cli._WHITESPACE.findall(every) == [c for c in every if c.isspace()]

    # ASCII space, tab and newline, the separators \x1c-\x1f (spaces to
    # str.isspace), NEL, no-break, em, ideographic and line-separator
    # spaces; the zero-width space and a letter are not whitespace.
    @pytest.mark.parametrize("char", [" ", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "\u2028", "\u200b", "x"])
    def test_text_record_matches_the_per_character_rule(self, char):
        record = {"command": "info", "value": f"a{char}b", "n": 12, "plain": "ok"}
        out = io.StringIO()
        cli._emit(record, False, out)
        parts = []
        for k, v in record.items():
            text = str(v)
            parts.append(f"{k}={shlex.quote(text) if any(c.isspace() for c in text) else text}")
        assert out.getvalue() == " ".join(parts) + "\n"


def factors_and_rest(n):
    """factorize(n) as the trial-division references give it: (factors, rest)."""
    f = factorize(n)
    return f.factors, f.rest


def trial_factor_by_odd_integers(n):
    """Reference: trial division by 2 and every odd integer up to the bound."""
    factors = []
    q = 2
    while q <= TRIAL_DIVISION_BOUND and q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1 and q * q > n:
        factors.append((n, 1))
        n = 1
    return factors, n


class TestFactoring:
    def test_trial_factor(self):
        assert factorize(2**4 * 3 * 101).factors == [(2, 4), (3, 1), (101, 1)]

    def test_primes_only_matches_odd_integers(self):
        # Squares of the primes either side of the bound 2^20, of 2^20 + 1
        # (composite, the first candidate past the bound), and a prime far
        # past it, then random inputs of 2 to 260 bits.
        edges = [0, 1, 2, 4, 1048573**2, 1048583**2, (2**20 + 1) ** 2, 2**127 - 1, 1048573 * 1048583]
        rng = random.Random(20)
        randoms = [rng.getrandbits(rng.randrange(2, 261)) for _ in range(12)]
        for n in edges + randoms:
            assert factors_and_rest(n) == trial_factor_by_odd_integers(n), n

    def test_prime_verdict_matches_is_probable_prime(self):
        # The subgroup choice reads primality of the whole order from its
        # factorisation instead of a second primality test.
        rng = random.Random(22)
        edges = [2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1, (2**61 - 1) * (2**31 - 1),
                 1048573, 1048583, 1048573**2, 1048573 * 1048583, 3 * (2**127 - 1)]
        randoms = [rng.getrandbits(rng.randrange(2, 200)) | 1 for _ in range(200)]
        for n in list(range(3000)) + edges + randoms:
            assert factorize(n).is_prime == is_probable_prime(n), n

    def test_factor_string(self):
        assert factor_string(1) == "1"
        assert factor_string(12) == "2^2*3"
        big = (2**89 - 1) * 4  # Mersenne prime times a small cofactor
        assert factor_string(big) == f"2^2*{2**89 - 1}(probable_prime)"


def sieve_primes(bound):
    """Reference: the primes up to bound by a plain sieve of Eratosthenes."""
    is_prime = [True] * (bound + 1)
    is_prime[:2] = [False, False]
    for q in range(2, math.isqrt(bound) + 1):
        if is_prime[q]:
            for k in range(q * q, bound + 1, q):
                is_prime[k] = False
    return [q for q in range(bound + 1) if is_prime[q]]


def trial_factor_prime_by_prime(n, primes):
    """Reference: trial division by each prime in turn, stopping at the first
    prime whose square exceeds n."""
    factors = []
    q = TRIAL_DIVISION_BOUND + 1
    for prime in primes:
        if prime * prime > n:
            q = prime
            break
        if n % prime == 0:
            e = 0
            while n % prime == 0:
                n //= prime
                e += 1
            factors.append((prime, e))
    if n > 1 and q * q > n:
        factors.append((n, 1))
        n = 1
    return factors, n


def factorize_by_reference(n, primes):
    """Reference: trial_factor_prime_by_prime plus one is_probable_prime
    verdict on the remainder, as a plain (n, factors, rest, rest_is_prime)."""
    factors, rest = trial_factor_prime_by_prime(n, primes)
    return (n, factors, rest, rest > 1 and is_probable_prime(rest))


class TestBlockScreening:
    @pytest.fixture(scope="class")
    def primes(self):
        return sieve_primes(TRIAL_DIVISION_BOUND)

    def test_blocks_are_the_sieve(self, primes):
        blocks = _trial_blocks(TRIAL_DIVISION_BOUND)
        assert [q for _, block in blocks for q in block] == primes
        for product, block in blocks:
            expected = 1
            for q in block:
                expected *= q
            assert product == expected

    def test_block_edges(self, primes):
        blocks = [block for _, block in _trial_blocks(TRIAL_DIVISION_BOUND)]
        assert len(blocks) > 4
        edges = list(range(5))
        # A divisor on either side of a block boundary, first few and last.
        for left, right in list(zip(blocks, blocks[1:]))[:4] + [(blocks[-2], blocks[-1])]:
            edges += [left[-1] * right[0], left[-1] * right[0] * 2**3]
        # Squares of the first and last prime of a block.
        for block in blocks[:3] + blocks[-2:]:
            edges += [block[0] ** 2, block[-1] ** 2, block[0] * block[-1]]
        # Prime powers with small bases.
        edges += [q**k for q in (2, 3, 5, 7, 11, 13, 1021) for k in range(1, 11)]
        # The largest prime below 2^20 times a prime far past the bound.
        edges.append(primes[-1] * (2**127 - 1))
        # The stop prime * prime > n falls inside a block with no divisor:
        # n is a prime, or 2^5 times one, with sqrt(n) in the middle of a
        # later block.
        block = blocks[3]
        mid = next(q for q in range(block[100] ** 2 + 1, block[101] ** 2) if is_probable_prime(q))
        edges += [mid, 2**5 * mid]
        for n in edges:
            assert factors_and_rest(n) == trial_factor_prime_by_prime(n, primes), n
        for n in edges[:5] + [primes[-1] * (2**127 - 1), mid]:
            assert factors_and_rest(n) == trial_factor_by_odd_integers(n), n

    def test_random_inputs(self, primes):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.getrandbits(rng.randrange(2, 300))
            if rng.randrange(2):  # plant small factors across the blocks
                n *= math.prod(rng.choice(primes) for _ in range(rng.randrange(1, 4)))
            assert factors_and_rest(n) == trial_factor_prime_by_prime(n, primes), n

    def test_every_n_below_2_17(self, primes):
        # A sieve to 2^ceil(bits/2) <= 2^9 gives what the full list gives.
        for n in range(1 << 17):
            assert factors_and_rest(n) == trial_factor_prime_by_prime(n, primes), n

    def test_every_bit_length(self, primes):
        rng = random.Random(34)
        for bits in range(1, 257):
            for _ in range(3 if bits <= 48 else 1):
                n = rng.getrandbits(bits) | 1 << (bits - 1)
                if rng.randrange(2):  # a factor on either side of the limit
                    n *= rng.choice(primes[: 1 << rng.randrange(1, 17)])
                assert factors_and_rest(n) == trial_factor_prime_by_prime(n, primes), n

    @staticmethod
    def assert_pair(a, b, primes):
        """Each number of a pair gives what the prime-by-prime reference
        gives."""
        expected = [factorize_by_reference(n, primes) for n in (a, b)]
        assert [factorize(a), factorize(b)] == expected, (a, b)

    def test_pair_edges(self, primes):
        blocks = [block for _, block in _trial_blocks(TRIAL_DIVISION_BOUND)]
        above_bound = 1048583  # the first prime past 2^20
        big = (2**127 - 1) * 3 * 1048573
        smalls = [0, 1, 2, 3, 4, 6, 2**38 - 5, 3 * 5 * 7 * 11 * 13, above_bound, above_bound**2]
        pairs = [(a, b) for a in smalls for b in smalls]
        # One limit below 2^20 and one at it: the smaller limit's last block
        # is cut short, so the two block lists differ there.
        pairs += [(a, big) for a in smalls] + [(big, a) for a in smalls]
        pairs += [(n, n) for n in (big, above_bound**2, 2**127 - 1)]
        # Shared small factors, and factors planted in different blocks.
        shared = 2**3 * 3 * blocks[2][7]
        pairs.append((shared * (2**89 - 1), shared * (2**61 - 1) * blocks[-1][-1]))
        for i, j in ((0, 5), (3, 40), (7, len(blocks) - 1), (len(blocks) - 1, 1)):
            pairs.append((blocks[i][11] * blocks[i][-1] * (2**127 - 1), blocks[j][0] ** 2 * (2**107 - 1)))
        # A prime just above 2^20, squared, beside a 254-bit number.
        pairs += [(above_bound**2, 2**253 + 1), (above_bound**2 * 2**5, 2**61 - 1)]
        for a, b in pairs:
            self.assert_pair(a, b, primes)

    @pytest.mark.parametrize("argv", [EX1, EX2], ids=["d2", "d5"])
    def test_paper_pairs(self, argv, primes):
        t = int(argv[argv.index("--trace") + 1])
        n_curve, n_twist = MERSENNE_127**2 + 1 - t, MERSENNE_127**2 + 1 + t
        self.assert_pair(n_curve, n_twist, primes)
        self.assert_pair(n_twist, n_curve, primes)

    def test_random_pairs(self, primes):
        rng = random.Random(39)
        for _ in range(240):
            pair = []
            for _ in range(2):
                n = rng.getrandbits(rng.randrange(2, 301))
                if rng.randrange(2):  # plant small factors across the blocks
                    n *= math.prod(rng.choice(primes) for _ in range(rng.randrange(1, 4)))
                pair.append(n)
            self.assert_pair(*pair, primes)

    def test_early_exit_edges(self, primes):
        # Past (2^20 + 1)^2, a cofactor left by the first block (primes up
        # to 3671) that passes Baillie-PSW ends the trial division.
        assert _trial_blocks(1 << 12)[0][1] == _trial_blocks(TRIAL_DIVISION_BOUND)[0][1]
        assert _trial_blocks(1 << 12)[0][1][-1] == 3671
        prime = next(q for q in range(2**200 + 1, 2**201, 2) if is_probable_prime(q))
        edges = [
            0,
            1,
            2,
            1048573**2,  # just below the exit square: the walk to 2^20 splits it
            1048583**2,  # a square above it: refused, then composite
            1048583 * 1048589,  # no factor up to 2^20: the refusal is reused
            3671 * prime,  # the last prime of the first block
            3673 * prime,  # the first prime past it
            3671 * (2**127 - 1),
            3673 * (2**127 - 1),
            3671 * 3673 * 1048583 * prime,
            2 * (2**61 - 1),  # Mersenne cofactors, decided by Lucas-Lehmer
            3 * (2**89 - 1),
            2**38 - 1,
            2**38,
            2**40 + 15,
            (TRIAL_DIVISION_BOUND + 1) ** 2,
            (TRIAL_DIVISION_BOUND + 1) ** 2 - 2,
        ]
        rng = random.Random(40)
        for bits in (38, 39, 40, 41):  # the limit reaches 2^20 from 39 bits
            edges += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(20)]
        for n in edges:
            assert factorize(n) == factorize_by_reference(n, primes), n
        for a, b in zip(edges, edges[1:] + edges[:1]):
            self.assert_pair(a, b, primes)

    def test_small_order_sieves_to_its_square_root(self):
        # The orders at p = 11 and p = 61 are below 2^7 and 2^12: their
        # primes stop at 2^4 and 2^6, and the full list is never built.
        _trial_blocks.cache_clear()
        assert str(factorize(102)) == "2*3*17"
        assert str(factorize(3844)) == "2^2*31^2"
        info = _trial_blocks.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert [q for _, block in _trial_blocks(1 << 4) for q in block] == [2, 3, 5, 7, 11, 13]
        assert _trial_blocks(1 << 6)[-1][1][-1] == 61
        assert _trial_blocks.cache_info().misses == 2
