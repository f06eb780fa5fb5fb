"""The EngineProfile seam: differential bit-exactness, resolution,
telemetry, validation errors, fallback observability, and the
``engine="auto"`` rule.

A profile names an ``(engine, backend)`` pair, and ``collect_auto``
resolves every run to one registered profile.  Choosing one changes
*nothing* about what is sampled:

- every registered profile, pinned explicitly through ``collect_auto``,
  is bit-for-bit identical to the equivalent kwargs
  (``engine=``/``backend=``) at the same seed, and both report the
  same registered profile;
- the ``batch-python`` profile fed an explicit bit source is
  bit-for-bit identical to the reference trampoline on that source
  (the cross-engine anchor the differential suite pins per-sample; here
  at ``collect`` level);
- ``engine="auto"`` resolves to exactly
  :func:`~repro.engine.profile.static_profile` of the compiled
  program's features: ``native`` on closed tables where a kernel can
  be built, else numpy, else pure Python.

On top of that, the seam must be *observable*: telemetry JSONL records
name the registered profile that ran, batch-to-trampoline downgrades
surface as ``CollectResult.fallback_reason``, and unknown
engines/backends fail loudly with the valid set in the message.
"""

import json
from fractions import Fraction

import pytest

from repro.compiler import cache as compiler_cache
from repro.compiler import pipeline as compiler_pipeline
from repro.compiler.pipeline import compile_program
from repro.engine import BatchSampler, BitPool, collect_auto
from repro.engine.native import native_available
from repro.engine.profile import (
    PROFILES,
    EngineProfile,
    features_of,
    static_profile,
    validate_profile,
)
from repro.engine.pool import HAVE_NUMPY
from repro.itree.unfold import cpgcl_to_itree
from repro.lang.expr import Var
from repro.lang.state import State
from repro.lang.sugar import (
    dueling_coins,
    geometric_primes,
    hare_tortoise,
    n_sided_die,
)
from repro.sampler.record import collect
from repro.telemetry import configure_telemetry, read_records, telemetry_path

S0 = State()

PROGRAMS = [
    ("die6", n_sided_die(6), 300),
    ("die200", n_sided_die(200), 150),
    ("dueling", dueling_coins(Fraction(1, 3)), 150),
    ("geometric", geometric_primes(Fraction(1, 2)), 150),
]

HEAVY_PROGRAMS = [
    ("hare_tortoise", hare_tortoise(Var("time") <= 10), 10),
]

#: (profile name, equivalent collect_auto kwargs).
EQUIVALENT_KWARGS = [
    ("trampoline", {"engine": "trampoline"}),
    ("batch-python", {"backend": "python"}),
    ("batch-numpy", {"backend": "numpy"}),
    ("batch-auto", {"engine": "batch"}),
    ("native", {"backend": "native"}),
]

#: The registered profile each ``backend=`` kwarg resolves to.
BACKEND_PROFILES = {
    "auto": "batch-auto",
    "native": "native",
    "numpy": "batch-numpy",
    "python": "batch-python",
}


@pytest.fixture(autouse=True)
def _no_telemetry_leak():
    # Tests that enable telemetry point it at a tmp dir; everything else
    # must stay isolated from any ambient ZAR_TELEMETRY_DIR.
    configure_telemetry(None)
    yield
    configure_telemetry(None)


def _assert_same_samples(a, b, context):
    assert a.values == b.values, "%s: values diverged" % context
    assert a.bits == b.bits, "%s: per-sample bits diverged" % context


class TestDifferentialBitExactness:
    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    @pytest.mark.parametrize(
        "profile_name,kwargs", EQUIVALENT_KWARGS,
        ids=[name for name, _ in EQUIVALENT_KWARGS],
    )
    def test_profile_equals_preprofile_kwargs(
        self, name, command, n, profile_name, kwargs
    ):
        if profile_name == "batch-numpy" and not HAVE_NUMPY:
            pytest.skip("numpy backend unavailable")
        pinned = collect_auto(
            command, n, seed=23, profile=PROFILES[profile_name]
        )
        loose = collect_auto(command, n, seed=23, **kwargs)
        _assert_same_samples(
            pinned.samples, loose.samples, "%s/%s" % (name, profile_name)
        )
        assert pinned.profile is loose.profile is PROFILES[profile_name]
        assert pinned.fallback_reason == loose.fallback_reason
        if profile_name != "native":  # native downgrades on open tables
            assert pinned.fallback_reason is None

    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_python_profile_matches_trampoline_on_shared_source(
        self, name, command, n
    ):
        reference = collect(
            cpgcl_to_itree(command, S0), n, source=BitPool(5)
        )
        sampler = BatchSampler.from_command(command)
        engine = sampler.collect(n, source=BitPool(5))
        _assert_same_samples(reference, engine, name)

    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_auto_resolves_to_static_profile(self, name, command, n):
        # engine="auto" is the static rule over the compiled program's
        # features, bit for bit.
        rule = static_profile(features_of(compile_program(command)))
        auto = collect_auto(command, n, seed=31)
        pinned = collect_auto(command, n, seed=31, profile=rule)
        _assert_same_samples(auto.samples, pinned.samples, name)
        assert auto.profile == rule

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,command,n", HEAVY_PROGRAMS, ids=[p[0] for p in HEAVY_PROGRAMS]
    )
    def test_heavy_program_profiles_agree(self, name, command, n):
        rule = static_profile(features_of(compile_program(command)))
        auto = collect_auto(command, n, seed=47)
        pinned = collect_auto(command, n, seed=47, profile=rule)
        _assert_same_samples(auto.samples, pinned.samples, name)


class TestResolution:
    @pytest.mark.parametrize("backend", sorted(BACKEND_PROFILES))
    def test_backend_kwarg_reports_its_registered_profile(
        self, tmp_path, backend
    ):
        if backend == "numpy" and not HAVE_NUMPY:
            pytest.skip("numpy backend unavailable")
        configure_telemetry(str(tmp_path))
        result = collect_auto(n_sided_die(6), 40, seed=5, backend=backend)
        expected = PROFILES[BACKEND_PROFILES[backend]]
        assert result.profile is expected
        [record] = read_records()
        assert record["schema"] == 3
        assert record["profile"] == expected.name
        assert record["backend"] == backend

    def test_profiles_are_engine_backend_pairs(self):
        assert EngineProfile._fields == ("name", "engine", "backend")
        for name, profile in PROFILES.items():
            assert profile.name == name
            assert validate_profile(profile) is profile


class TestSerializationAndTelemetry:
    def test_run_record_serializes_profile(self, tmp_path):
        configure_telemetry(str(tmp_path))
        result = collect_auto(n_sided_die(6), 50, seed=3)
        records = read_records()
        assert telemetry_path() == str(tmp_path / "telemetry.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == 3
        assert record["engine"] == "batch"
        assert record["n"] == 50
        assert record["digest"], "run record must carry the program digest"
        assert record["fallback_reason"] is None
        assert "feature_bucket" not in record
        assert "kind" not in record
        assert record["samples_per_sec"] is None or record["samples_per_sec"] > 0
        assert record["profile"] == result.profile.name
        assert PROFILES[record["profile"]] is result.profile

    def test_telemetry_appends_jsonl_lines(self, tmp_path):
        configure_telemetry(str(tmp_path))
        for seed in range(3):
            collect_auto(n_sided_die(6), 20, seed=seed)
        lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_trampoline_run_records_no_backend(self, tmp_path):
        # The trampoline runs no batch backend: its record must not
        # copy the trampoline profile's unused backend field ("auto").
        configure_telemetry(str(tmp_path))
        collect_auto(n_sided_die(6), 10, seed=1, engine="trampoline")
        [record] = read_records(str(tmp_path / "telemetry.jsonl"))
        assert record["engine"] == "trampoline"
        assert record["profile"] == "trampoline"
        assert record["backend"] is None

    def test_disabled_telemetry_writes_nothing(self, tmp_path):
        collect_auto(n_sided_die(6), 20, seed=1)
        assert not (tmp_path / "telemetry.jsonl").exists()
        assert read_records() == []


class TestValidationErrors:
    def test_unknown_engine_lists_valid_set(self):
        with pytest.raises(ValueError, match=r"auto, batch, trampoline"):
            collect_auto(n_sided_die(6), 10, engine="warp")

    def test_unknown_backend_lists_valid_set(self):
        with pytest.raises(
            ValueError, match=r"auto, native, numpy, python\)"
        ):
            collect_auto(n_sided_die(6), 10, backend="gpu")

    def test_batch_sampler_backend_error_lists_valid_set(self):
        sampler = BatchSampler.from_command(n_sided_die(6))
        with pytest.raises(
            ValueError, match=r"auto, native, numpy, python\)"
        ):
            sampler.collect(10, seed=0, backend="gpu")

    def test_sequential_backend_is_gone(self):
        # The per-sample backend folded into "python" (an explicit
        # source runs there); naming it must fail loudly, not alias.
        valid = r"auto, native, numpy, python\)"
        with pytest.raises(ValueError, match=valid):
            collect_auto(n_sided_die(6), 10, backend="sequential")
        sampler = BatchSampler.from_command(n_sided_die(6))
        with pytest.raises(ValueError, match=valid):
            sampler.collect(10, seed=0, backend="sequential")
        with pytest.raises(ValueError, match=valid):
            validate_profile(EngineProfile(backend="sequential"))
        assert "batch-sequential" not in PROFILES

    def test_cli_rejects_sequential_backend(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine.profile import BACKENDS

        program = tmp_path / "die.gcl"
        program.write_text("m <~ uniform(6);\n")
        with pytest.raises(SystemExit) as exited:
            main(["sample", str(program), "--backend", "sequential"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "'sequential'" in err
        listed = err.split("choose from", 1)[1]
        for name in BACKENDS:
            assert name in listed

    def test_bad_profile_engine_rejected(self):
        with pytest.raises(ValueError, match=r"batch, trampoline"):
            validate_profile(EngineProfile(engine="auto"))

    @pytest.mark.parametrize("backend", ["native", "python", "auto"])
    def test_trampoline_rejects_a_pinned_backend(self, backend):
        # The trampoline runs no batch backend: a pinned one is a
        # conflict to report, not a choice to drop.
        with pytest.raises(ValueError, match="trampoline"):
            collect_auto(n_sided_die(6), 10, seed=1, engine="trampoline",
                         backend=backend)
        with pytest.raises(ValueError, match="trampoline"):
            collect_auto(n_sided_die(6), 10, seed=1,
                         profile=PROFILES["trampoline"], backend=backend)

    def test_cli_rejects_trampoline_with_backend(self, tmp_path):
        import io

        from repro.cli import main

        program = tmp_path / "die.gcl"
        program.write_text("m <~ uniform(6);\n")
        out = io.StringIO()
        code = main(["sample", str(program), "--engine", "trampoline",
                     "--backend", "native"], out=out)
        assert code == 1
        assert out.getvalue().startswith("error: backend 'native' ")


@pytest.fixture()
def tiny_pipeline(monkeypatch):
    """Shrink the default pipeline's node budget so lowering the open
    geometric program overflows."""
    monkeypatch.setattr(
        compiler_pipeline, "_DEFAULT",
        compiler_pipeline.Pipeline(max_nodes=8, use_cache=False),
    )


class TestFallbackObservability:
    def test_auto_fallback_reason_is_recorded(self, tmp_path, tiny_pipeline):
        # engine="auto" must downgrade to the trampoline and say why.
        configure_telemetry(str(tmp_path))
        result = collect_auto(geometric_primes(Fraction(1, 2)), 30, seed=11)
        assert result.engine == "trampoline"
        assert result.profile is PROFILES["trampoline"]
        assert result.fallback_reason, "downgrade must carry its reason"
        assert result.samples.values, "fallback still samples"
        [record] = read_records(str(tmp_path / "telemetry.jsonl"))
        assert record["fallback_reason"] == result.fallback_reason
        assert record["profile"] == "trampoline"
        assert record["backend"] is None

    def test_explicit_batch_engine_raises_instead(self, tiny_pipeline):
        from repro.engine.table import LoweringError

        with pytest.raises(LoweringError):
            collect_auto(
                geometric_primes(Fraction(1, 2)), 30, seed=11,
                engine="batch",
            )

    def test_explicit_tiny_profile_raises(self, tiny_pipeline):
        # A pinned batch profile is a manual choice: no fallback.
        from repro.engine.table import LoweringError

        with pytest.raises(LoweringError):
            collect_auto(
                geometric_primes(Fraction(1, 2)), 30, seed=11,
                profile=PROFILES["batch-auto"],
            )

    def test_backend_kwarg_override_is_reported(self, tmp_path):
        # A backend kwarg overrides a pinned profile's backend, and the
        # run is reported as that backend's registered profile -- never
        # attributed to the pinned profile's backend.
        configure_telemetry(str(tmp_path))
        result = collect_auto(
            n_sided_die(6), 40, seed=5, profile=PROFILES["batch-numpy"],
            backend="python",
        )
        assert result.profile is PROFILES["batch-python"]
        [record] = read_records(str(tmp_path / "telemetry.jsonl"))
        assert record["profile"] == "batch-python"
        assert record["backend"] == "python"


_POOLED_DEFAULT = "batch-numpy" if HAVE_NUMPY else "batch-python"

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler available (or ZAR_NATIVE_DISABLE set)",
)


class TestAutoRule:
    @requires_native
    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS[:3], ids=[p[0] for p in PROGRAMS[:3]]
    )
    def test_closed_tables_run_native(self, name, command, n):
        auto = collect_auto(command, n, seed=37)
        assert auto.profile.name == "native"
        assert auto.fallback_reason is None
        python = collect_auto(command, n, seed=37,
                              profile=PROFILES["batch-python"])
        _assert_same_samples(auto.samples, python.samples, name)

    def test_open_table_takes_pooled_default(self):
        auto = collect_auto(geometric_primes(Fraction(1, 2)), 50, seed=37)
        assert auto.profile.name == _POOLED_DEFAULT
        assert auto.fallback_reason is None

    def test_fuel_keeps_auto_off_native(self):
        # The kernel cannot meter fuel: a metered auto run never picks
        # native, so it never reports a downgrade either.
        auto = collect_auto(n_sided_die(6), 50, seed=37, fuel=1000)
        assert auto.profile.name == _POOLED_DEFAULT
        assert auto.fallback_reason is None

    def test_artifact_store_leaves_resolution_alone(
        self, tmp_path, monkeypatch
    ):
        # A configured artifact store is no policy input: auto resolves
        # and samples the same with one, and writes only artifacts.
        command = n_sided_die(6)
        plain = collect_auto(command, 200, seed=41)
        monkeypatch.setenv("ZAR_COMPILE_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(compiler_cache, "_GLOBAL",
                            compiler_cache.CompilationCache())
        stored = collect_auto(command, 200, seed=41)
        assert compiler_cache.get_cache().disk_dir == str(tmp_path)
        assert stored.profile == plain.profile
        _assert_same_samples(stored.samples, plain.samples, "die6")
        assert not (tmp_path / "tuner.json").exists()
