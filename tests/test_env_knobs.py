"""Env-knob parsing: garbage in a ``REPRO_*`` variable must raise a
``ConfigurationError`` naming the variable and the offending value, not
explode as a bare ``ValueError`` deep inside the engine (which the
supervisor would misclassify as a permanent simulation failure)."""

import pytest

from repro.campaign import store as campaign_store
from repro.serve import app as serve_app
from repro.serve import client as serve_client
from repro.serve import cluster as serve_cluster
from repro.serve import netfaults
from repro.sim import faults, iofaults, runner, snapshot, supervisor
from repro.sim.config import ConfigurationError, env_float, env_int, env_str


class TestEnvHelpers:
    def test_int_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_int_default_when_blank(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert env_int("REPRO_TEST_KNOB", 7) == 12

    def test_int_garbage_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.raises(ConfigurationError) as excinfo:
            env_int("REPRO_TEST_KNOB", 7)
        assert "REPRO_TEST_KNOB" in str(excinfo.value)
        assert "banana" in str(excinfo.value)

    def test_int_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.raises(ConfigurationError) as excinfo:
            env_int("REPRO_TEST_KNOB", 7, minimum=0)
        assert "REPRO_TEST_KNOB" in str(excinfo.value)

    def test_float_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_float("REPRO_TEST_KNOB", 0.0) == 2.5

    def test_float_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "soon")
        with pytest.raises(ConfigurationError) as excinfo:
            env_float("REPRO_TEST_KNOB", 0.0)
        assert "REPRO_TEST_KNOB" in str(excinfo.value)
        assert "soon" in str(excinfo.value)

    def test_str_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_str("REPRO_TEST_KNOB", "fallback") == "fallback"

    def test_str_pattern_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "has spaces!")
        with pytest.raises(ConfigurationError) as excinfo:
            env_str("REPRO_TEST_KNOB", "x", pattern=r"[A-Za-z0-9._-]+")
        assert "REPRO_TEST_KNOB" in str(excinfo.value)
        assert "has spaces!" in str(excinfo.value)

    def test_str_strips_and_passes_pattern(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "  node-7.a  ")
        assert env_str("REPRO_TEST_KNOB", "x",
                       pattern=r"[A-Za-z0-9._-]+") == "node-7.a"

    def test_not_a_value_error(self):
        # ValueError is in the supervisor's PERMANENT_EXCEPTIONS set; a
        # configuration problem must not masquerade as a simulation bug.
        assert not issubclass(ConfigurationError, ValueError)
        assert ConfigurationError not in supervisor.PERMANENT_EXCEPTIONS


class TestKnobConsumers:
    """Each engine knob goes through the validating helpers."""

    @pytest.mark.parametrize("var,call", [
        ("REPRO_MAX_RETRIES", supervisor.max_retries),
        ("REPRO_RUN_TIMEOUT", supervisor.run_timeout),
        ("REPRO_SNAPSHOT_EVERY", snapshot.snapshot_every),
        ("REPRO_JOBS", runner.job_count),
    ])
    def test_garbage_raises_configuration_error(self, monkeypatch, var,
                                                call):
        monkeypatch.setenv(var, "not-a-number")
        with pytest.raises(ConfigurationError) as excinfo:
            call()
        assert var in str(excinfo.value)
        assert "not-a-number" in str(excinfo.value)

    def test_backoff_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "fast")
        with pytest.raises(ConfigurationError) as excinfo:
            supervisor.backoff_delay(0, 0)
        assert "REPRO_RETRY_BACKOFF" in str(excinfo.value)

    def test_snapshot_every_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "-5")
        with pytest.raises(ConfigurationError):
            snapshot.snapshot_every()

    def test_valid_values_still_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "100")
        assert supervisor.max_retries() == 4
        assert supervisor.run_timeout() == 1.5
        assert snapshot.snapshot_every() == 100
        assert snapshot.snapshot_enabled()


class TestCampaignKnobs:
    """The campaign layer's knobs go through the same machinery."""

    def test_campaign_db_directory_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAMPAIGN_DB", str(tmp_path))
        with pytest.raises(ConfigurationError) as excinfo:
            campaign_store.store_path()
        assert "REPRO_CAMPAIGN_DB" in str(excinfo.value)


class TestServeKnobs:
    """The serving daemon's knobs go through the same machinery."""

    @pytest.mark.parametrize("var,call", [
        ("REPRO_SERVE_PORT", serve_app.serve_port),
        ("REPRO_QUEUE_MAX", serve_app.queue_max),
        ("REPRO_CLIENT_QUOTA", serve_app.client_quota),
        ("REPRO_CLIENT_RETRIES", serve_client.client_retries),
        ("REPRO_CLIENT_BACKOFF", serve_client.client_backoff),
    ])
    def test_garbage_raises_configuration_error(self, monkeypatch, var,
                                                call):
        monkeypatch.setenv(var, "many")
        with pytest.raises(ConfigurationError) as excinfo:
            call()
        assert var in str(excinfo.value)
        assert "many" in str(excinfo.value)

    def test_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "-1")
        with pytest.raises(ConfigurationError):
            serve_app.serve_port()           # 0 (ephemeral) is the floor
        monkeypatch.setenv("REPRO_QUEUE_MAX", "0")
        with pytest.raises(ConfigurationError):
            serve_app.queue_max()            # a queue needs >= 1 slot
        monkeypatch.setenv("REPRO_CLIENT_QUOTA", "-2")
        with pytest.raises(ConfigurationError):
            serve_app.client_quota()         # 0 = unlimited is the floor

    def test_client_retry_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "-1")
        with pytest.raises(ConfigurationError):
            serve_client.client_retries()    # 0 = no retries is the floor
        monkeypatch.setenv("REPRO_CLIENT_BACKOFF", "-0.5")
        with pytest.raises(ConfigurationError):
            serve_client.client_backoff()    # 0 = immediate is the floor

    def test_client_retry_defaults_and_values(self, monkeypatch):
        for var in ("REPRO_CLIENT_RETRIES", "REPRO_CLIENT_BACKOFF"):
            monkeypatch.delenv(var, raising=False)
        assert serve_client.client_retries() == 4
        assert serve_client.client_backoff() == 0.1
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "0")
        monkeypatch.setenv("REPRO_CLIENT_BACKOFF", "0")
        assert serve_client.client_retries() == 0
        assert serve_client.client_backoff() == 0.0

    def test_defaults_and_values(self, monkeypatch):
        for var in ("REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
                    "REPRO_QUEUE_MAX", "REPRO_CLIENT_QUOTA"):
            monkeypatch.delenv(var, raising=False)
        assert serve_app.serve_host() == "127.0.0.1"
        assert serve_app.serve_port() == serve_app.DEFAULT_PORT
        assert serve_app.queue_max() == serve_app.DEFAULT_QUEUE_MAX
        assert serve_app.client_quota() == serve_app.DEFAULT_CLIENT_QUOTA
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        monkeypatch.setenv("REPRO_QUEUE_MAX", "8")
        monkeypatch.setenv("REPRO_CLIENT_QUOTA", "0")
        assert serve_app.serve_port() == 0
        assert serve_app.queue_max() == 8
        assert serve_app.client_quota() == 0


class TestEngineFaultKnobs:
    """``REPRO_FAULTS`` follows the same contract as the storage and
    network planes: garbage is an operator error naming the variable
    (the CLI exits 2), never a run failure."""

    @pytest.mark.parametrize("spec", [
        "frobnicate@0",               # unknown kind
        "crash",                      # no target
        "crash@x",                    # non-integer index
        "error~2",                    # seeded target missing /seed
        "hang@0:sekonds=3",           # unknown parameter
        "hang@0:secs=soon",           # bad float
        "kill@0",                     # kill without at=
    ])
    def test_garbage_spec_is_configuration_error(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        with pytest.raises(ConfigurationError) as excinfo:
            faults.plan_from_env(4)
        assert "REPRO_FAULTS" in str(excinfo.value)

    def test_unset_and_blank_mean_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.plan_from_env(4) is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert faults.plan_from_env(4) is None

    def test_valid_spec_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0+2;hang~1/7:secs=5")
        plan = faults.plan_from_env(4)
        kinds = [[a.kind for a in plan.for_run(i)] for i in range(4)]
        assert "crash" in kinds[0] and "crash" in kinds[2]
        assert sum(run.count("hang") for run in kinds) == 1

    def test_spec_error_is_not_a_simulation_failure(self):
        assert issubclass(faults.FaultSpecError, ConfigurationError)
        assert not issubclass(faults.FaultSpecError, ValueError)
        assert faults.FaultSpecError \
            not in supervisor.PERMANENT_EXCEPTIONS


class TestStorageFaultKnobs:
    """``REPRO_IO_FAULTS`` is validated by the same contract: garbage
    is an operator error naming the variable, never a crash downstream."""

    @pytest.mark.parametrize("spec", [
        "frobnicate",                 # unknown kind
        "torn@x:site=cache",          # non-integer index
        "eio~2:site=cache",           # seeded target missing /seed
        "torn:sight=cache",           # unknown parameter
        "slow:secs=soon",             # bad float
        "enospc@-1",                  # negative index
    ])
    def test_garbage_spec_is_configuration_error(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_IO_FAULTS", spec)
        with pytest.raises(ConfigurationError) as excinfo:
            iofaults.plan_from_env()
        assert "REPRO_IO_FAULTS" in str(excinfo.value)

    def test_unset_and_blank_mean_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_IO_FAULTS", raising=False)
        assert iofaults.plan_from_env() is None
        monkeypatch.setenv("REPRO_IO_FAULTS", "   ")
        assert iofaults.plan_from_env() is None

    def test_valid_spec_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_IO_FAULTS",
                           "torn@0+2:site=cache;eio~1/7:site=store")
        plan = iofaults.plan_from_env()
        assert [c.kind for c in plan] == ["torn", "eio"]
        assert plan[0].indices == (0, 2)
        assert plan[1].count == 1 and plan[1].seed == 7

    def test_spec_error_is_not_a_simulation_failure(self):
        assert issubclass(iofaults.IOFaultSpecError, ConfigurationError)
        assert not issubclass(iofaults.IOFaultSpecError, ValueError)
        assert iofaults.IOFaultSpecError \
            not in supervisor.PERMANENT_EXCEPTIONS


class TestNetworkFaultKnobs:
    """``REPRO_NET_FAULTS`` and the cluster knobs follow the same
    contract: operator garbage is a named ConfigurationError."""

    @pytest.mark.parametrize("spec", [
        "frobnicate",                 # unknown kind
        "refuse@x:site=client",       # non-integer index
        "reset~2:site=daemon",        # seeded target missing /seed
        "garble:sight=client.recv",   # unknown parameter
        "delay:secs=soon",            # bad float
        "drop@-1",                    # negative index
    ])
    def test_garbage_spec_is_configuration_error(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_NET_FAULTS", spec)
        with pytest.raises(ConfigurationError) as excinfo:
            netfaults.plan_from_env()
        assert "REPRO_NET_FAULTS" in str(excinfo.value)

    def test_unset_and_blank_mean_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_FAULTS", raising=False)
        assert netfaults.plan_from_env() is None
        monkeypatch.setenv("REPRO_NET_FAULTS", "   ")
        assert netfaults.plan_from_env() is None

    def test_valid_spec_parses(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_NET_FAULTS",
            "refuse@0:site=client.connect;garble~1/7:site=daemon")
        plan = netfaults.plan_from_env()
        assert [c.kind for c in plan] == ["refuse", "garble"]
        assert plan[0].indices == (0,)
        assert plan[1].count == 1 and plan[1].seed == 7

    def test_spec_error_is_not_a_simulation_failure(self):
        assert issubclass(netfaults.NetFaultSpecError, ConfigurationError)
        assert not issubclass(netfaults.NetFaultSpecError, ValueError)

    def test_member_ttl_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMBER_TTL", "forever")
        with pytest.raises(ConfigurationError) as excinfo:
            serve_cluster.member_ttl()
        assert "REPRO_MEMBER_TTL" in str(excinfo.value)

    def test_member_ttl_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMBER_TTL", raising=False)
        assert serve_cluster.member_ttl() == \
            serve_cluster.DEFAULT_MEMBER_TTL_S
        monkeypatch.setenv("REPRO_MEMBER_TTL", "2.5")
        assert serve_cluster.member_ttl() == 2.5


class TestServeWatchdogKnob:
    """A daemon with one engine job starts (the watchdog, when set,
    times its runs on a worker: see tests/test_serve_soak.py)."""

    def test_no_timeout_allows_serial_engine(self, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        handle = serve_app.start_in_thread(engine_jobs=1,
                                           heal_on_start=False)
        try:
            assert handle.port > 0
        finally:
            handle.stop()
