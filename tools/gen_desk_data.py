"""Regenerate the bundled desk-scale scenario data.

Writes base_load.csv, sessions.csv, and events.csv under
src/evgrid/data/desk/.  The base load is a smooth daily curve with an early
peak and a deep mid-horizon valley; sessions come from the same fleet spec
that config.json carries, so `evgrid gen-fleet` reproduces sessions.csv
byte for byte.
"""

import json
from pathlib import Path

import numpy as np

from evgrid import cli, coordinator, fileio, fleet, metrics

DESK = Path(__file__).resolve().parents[1] / "src" / "evgrid" / "data" / "desk"

BASE_PEAK_MW = 167.0
SHARES = {5: 0.42, 7: 0.08, 9: 0.50}


def base_curve(slots: int = 96) -> np.ndarray:
    t = np.arange(slots, dtype=float)
    shape = (
        0.58
        + 0.38 * np.exp(-((t - 21.0) ** 2) / 128.0)   # morning-side peak
        - 0.20 * np.exp(-((t - 45.0) ** 2) / 288.0)   # midday valley
        + 0.10 * np.exp(-((t - 78.0) ** 2) / 162.0)   # evening shoulder
    )
    return BASE_PEAK_MW * shape / shape.max()


def main() -> None:
    DESK.mkdir(parents=True, exist_ok=True)
    system = base_curve()
    bus_ids = tuple(sorted(SHARES))
    mw = np.vstack([SHARES[b] * system for b in bus_ids])
    fileio.write_rows(DESK / "base_load.csv", metrics.BASE_LOAD_HEADER,
                      ([t, bus_id, mw[k, t]] for t in range(mw.shape[1])
                       for k, bus_id in enumerate(bus_ids)))

    with open(DESK / "config.json", "r", encoding="utf-8") as fh:
        # every key checked, but not that the files exist: this writes them
        cfg = cli._parse_config(json.load(fh), {}, DESK)
    sessions = fleet.generate_fleet(cfg.seed, cfg.fleet_spec, cfg.scheduler.slots,
                                    cfg.scheduler.slot_hours)
    fleet.write_sessions(DESK / "sessions.csv", sessions)

    # an added session per bus, two new energy targets and a removal
    fileio.write_rows(DESK / "events.csv", coordinator.EVENT_COLUMNS, [
        [25, "add_session", "late5a", 5, 26, 84, 160.0, 200.0, -200.0],
        [25, "add_session", "late7a", 7, 27, 88, 140.0, 200.0, -200.0],
        [25, "add_session", "late9a", 9, 26, 90, 180.0, 200.0, -200.0],
        [40, "update_energy", "b5e0000", "", "", "", 190.0, "", ""],
        [40, "update_energy", "b9e0010", "", "", "", 175.0, "", ""],
        [40, "remove_session", "b7e0003", "", "", "", "", "", ""],
    ])
    print(f"wrote desk data under {DESK}")
    print(f"base: peak {system.max():.2f} MW, mean {system.mean():.2f} MW, "
          f"energy {system.sum() * 0.25:.1f} MWh")


if __name__ == "__main__":
    main()
