"""Static cost predictions vs the instrumented runtime (ISSUE 7 gate).

The cost analyzer claims it can predict an exemplar's communication
volume without running it.  This suite runs the three MPI exemplars with
an observer on the :data:`repro.obs.hooks.mpi` seam, counts every user-level
``send`` and collective-transport ``coll_msg`` event (and their bytes),
and requires the static model's sample at the same ``(N, P)`` to agree
within 10% — the acceptance bar from the issue; in practice the model is
exact on all three.
"""

import pytest

from repro.analysis.scale.cost import analyze_module_cost
from repro.obs.hooks import mpi as hooks


class _CommMeter:
    """Counts transport messages and bytes off the MPI hook bus."""

    def __init__(self) -> None:
        self.msgs = 0
        self.bytes = 0

    def __call__(self, event: str, *args) -> None:
        if event == "send":  # cid, src, dest, tag, nbytes
            self.msgs += 1
            self.bytes += args[4]
        elif event == "coll_msg":  # cid, src, dest, nbytes
            self.msgs += 1
            self.bytes += args[3]


def _measure(run) -> _CommMeter:
    meter = _CommMeter()
    hooks.attach(meter)
    try:
        run()
    finally:
        hooks.detach(meter)
    return meter


def _assert_close(predicted, measured, what: str) -> None:
    assert predicted is not None, f"{what}: static model abstained"
    assert measured > 0, f"{what}: nothing measured"
    rel = abs(predicted - measured) / measured
    assert rel <= 0.10, (
        f"{what}: static {predicted} vs dynamic {measured} "
        f"({rel:.1%} off, bar is 10%)")


class TestIntegrationAgreement:
    N, P = 400, 4

    @pytest.fixture(scope="class")
    def static_sample(self):
        model = analyze_module_cost(
            "repro.exemplars.integration", "integrate_mpi",
            n_param="n", n_values=(self.N,), p_values=(self.P,))
        return model.sample_at(p=self.P, n=self.N)

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.exemplars.integration import integrate_mpi

        return _measure(lambda: integrate_mpi(self.N, np_procs=self.P))

    def test_message_count(self, static_sample, measured):
        _assert_close(static_sample.msgs, measured.msgs,
                      "integration msgs")

    def test_communication_bytes(self, static_sample, measured):
        _assert_close(static_sample.bytes, measured.bytes,
                      "integration bytes")


class TestHeatAgreement:
    N, STEPS, P = 64, 4, 4

    @pytest.fixture(scope="class")
    def static_sample(self):
        model = analyze_module_cost(
            "repro.exemplars.heat", "heat_mpi",
            bindings={"steps": self.STEPS},
            n_param="n", n_values=(self.N,), p_values=(self.P,))
        return model.sample_at(p=self.P, n=self.N)

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.exemplars.heat import heat_mpi

        return _measure(
            lambda: heat_mpi(self.N, self.STEPS, np_procs=self.P))

    def test_message_count(self, static_sample, measured):
        _assert_close(static_sample.msgs, measured.msgs, "heat msgs")

    def test_communication_bytes(self, static_sample, measured):
        _assert_close(static_sample.bytes, measured.bytes, "heat bytes")

    def test_model_sees_every_comm_site(self, static_sample):
        kinds = {(s.kind, s.name) for s in static_sample.sites}
        # cart setup, the halo sendrecv pair, and the result gather
        assert ("coll", "cart_setup") in kinds
        assert ("coll", "gather") in kinds
        assert any(kind == "p2p" for kind, _ in kinds)


class TestForestFireAgreement:
    PROBS, TRIALS, SIZE, P = (0.4, 0.6), 4, 15, 4

    @pytest.fixture(scope="class")
    def static_sample(self):
        model = analyze_module_cost(
            "repro.exemplars.forestfire", "fire_curve_mpi",
            bindings={"probs": self.PROBS, "trials": self.TRIALS,
                      "size": self.SIZE},
            p_values=(self.P,))
        return model.sample_at(p=self.P)

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.exemplars.forestfire import fire_curve_mpi

        return _measure(lambda: fire_curve_mpi(
            probs=self.PROBS, trials=self.TRIALS, size=self.SIZE,
            np_procs=self.P))

    def test_message_count(self, static_sample, measured):
        _assert_close(static_sample.msgs, measured.msgs,
                      "forestfire msgs")

    def test_communication_bytes(self, static_sample, measured):
        _assert_close(static_sample.bytes, measured.bytes,
                      "forestfire bytes")


class TestPredictionAcrossSizes:
    """The fitted polynomial must predict sizes it never sampled."""

    def test_integration_poly_extrapolates_to_unsampled_p(self):
        model = analyze_module_cost(
            "repro.exemplars.integration", "integrate_mpi",
            n_param="n", n_values=(100, 200, 400), p_values=(1, 2, 3, 4, 5))
        assert model.msgs_poly is not None

        from repro.exemplars.integration import integrate_mpi

        meter = _measure(lambda: integrate_mpi(400, np_procs=6))
        predicted = model.msgs_poly(400.0, 6.0)
        _assert_close(round(predicted), meter.msgs,
                      "integration msgs at unsampled P=6")
