"""End-to-end integration tests spanning multiple subsystems.

These exercise the full flow the paper describes: train a (reduced) rODENet
variant, offload its heavily-used ODEBlock to the simulated PL part, check
that the quantised hardware path preserves the prediction, and check that the
modelled execution time says the offload is worth it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OffloadPlanner, build_network
from repro.data import DataLoader, make_synthetic_cifar, train_test_split
from repro.hwsw import HwSwRuntime, Partition
from repro.nn import Tensor, accuracy, no_grad
from repro.train import PaperTrainingSchedule, Trainer, evaluate


@pytest.fixture(scope="module")
def trained_setup():
    """Train a reduced rODENet-3 on synthetic data (module-scoped: slow-ish)."""

    dataset = make_synthetic_cifar(
        num_samples=96, num_classes=4, image_size=16, difficulty=0.3, seed=21
    )
    train_set, test_set = train_test_split(dataset, test_fraction=0.25, seed=1)
    model = build_network("rODENet-3", 20, num_classes=4, base_width=4)
    schedule = PaperTrainingSchedule(epochs=4, base_lr=0.05, milestones=(3,), batch_size=24)
    trainer = Trainer(model, train_set, test_set, schedule=schedule, seed=2)
    history = trainer.fit()
    return model, train_set, test_set, history


class TestTrainOffloadPredict:
    def test_training_improves_over_initialisation(self, trained_setup):
        _, _, _, history = trained_setup
        assert history.final.train_loss < history.epochs[0].train_loss
        assert history.final.train_accuracy > 1.0 / 4 + 0.05  # beats chance

    def test_offloaded_inference_matches_software(self, trained_setup):
        model, _, test_set, _ = trained_setup
        runtime = HwSwRuntime(model, Partition.offload("layer3_2"))
        images = test_set.images[:4]
        fidelity = runtime.fidelity(images)
        assert fidelity["top1_agreement"] == 1.0
        assert fidelity["max_logit_diff"] < 0.1

    def test_offloaded_accuracy_matches_software_accuracy(self, trained_setup):
        model, _, test_set, _ = trained_setup
        runtime = HwSwRuntime(model, Partition.offload("layer3_2"))
        hw_logits, _ = runtime.predict(test_set.images)
        hw_acc = accuracy(hw_logits, test_set.labels)
        _, sw_acc = evaluate(model, test_set)
        assert hw_acc == pytest.approx(sw_acc, abs=0.05)

    def test_modeled_speedup_reported(self, trained_setup):
        model, _, test_set, _ = trained_setup
        runtime = HwSwRuntime(model, Partition.offload("layer3_2"))
        _, report = runtime.predict(test_set.images[:2])
        assert report.modeled_speedup > 1.5

    def test_offload_planner_agrees_with_runtime_targets(self, trained_setup):
        planner = OffloadPlanner()
        decision = planner.plan("rODENet-3", 20)
        assert decision.fits_device and decision.meets_timing
        assert decision.targets == ("layer3_2",)


class TestStateDictRoundTripAcrossSubsystems:
    def test_weights_survive_save_and_reload(self, trained_setup, tmp_path):
        model, _, test_set, _ = trained_setup
        state = model.state_dict()
        np.savez(tmp_path / "weights.npz", **state)

        loaded = dict(np.load(tmp_path / "weights.npz"))
        clone = build_network("rODENet-3", 20, num_classes=4, base_width=4)
        clone.load_state_dict(loaded)
        clone.eval(), model.eval()
        with no_grad():
            x = Tensor(test_set.images[:4])
            np.testing.assert_allclose(model(x).data, clone(x).data, rtol=1e-10)


class TestAllVariantsSmallScale:
    @pytest.mark.parametrize(
        "variant", ["ResNet", "ODENet", "rODENet-1", "rODENet-2", "rODENet-1+2", "rODENet-3", "Hybrid-3"]
    )
    def test_every_variant_takes_a_training_step(self, variant, tiny_split):
        train_set, _ = tiny_split
        model = build_network(variant, 20, num_classes=train_set.num_classes, base_width=4)
        loader = DataLoader(train_set, batch_size=16, shuffle=True, seed=0)
        images, labels = next(iter(loader))

        from repro.nn import SGD, CrossEntropyLoss

        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.0, weight_decay=0.0)
        criterion = CrossEntropyLoss()
        model.train()
        first = criterion(model(Tensor(images)), labels)
        first.backward()
        optimizer.step()
        optimizer.zero_grad()
        second = criterion(model(Tensor(images)), labels)
        assert second.item() < first.item()
