import csv
import importlib.util
from pathlib import Path

from lankgc import training
from lankgc.context import BundleContext

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_experiment_mines_the_rule_table_once(tmp_path, monkeypatch):
    # and builds one context for every run, which train() and link_prediction() share
    script = load_script()
    mined, built = [], []
    init = BundleContext.__init__

    def counted_init(self, bundle):
        built.append(bundle)
        init(self, bundle)

    def counted(mine):
        def wrapper(graph):
            mined.append(graph)
            return mine(graph)
        return wrapper

    monkeypatch.setattr(script, "mine_confidence", counted(script.mine_confidence))
    monkeypatch.setattr(training, "mine_confidence", counted(training.mine_confidence))
    monkeypatch.setattr(BundleContext, "__init__", counted_init)
    out = tmp_path / "results.csv"
    assert script.main(["--entities", "60", "--aggregators", "mean,lan", "--seeds", "0,1",
                        "--epochs", "1", "--dim", "8", "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["aggregator"], row["seed"]) for row in rows] == [
        ("mean", "0"), ("mean", "1"), ("lan", "0"), ("lan", "1"),
    ]
    assert len(mined) == 1
    assert len(built) == 1
    assert all(0.0 <= float(row["tc_accuracy"]) <= 1.0 for row in rows)
