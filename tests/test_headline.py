"""The headline script (tools/headline.py) runs at a small size and writes
every key of its schema, with every stage time finite and positive."""

import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "headline.py"
CASES = ["AR_EXAMPLE", "ROT", "DAR_EXAMPLE", "BOX_DIFFUSION_2D"]
META = {"nproc", "python", "numpy", "scipy", "revision", "blas_threads", "repetitions",
        "timing", "peak_rss"}
TIMES = {
    "dg": {"volume_s", "facet_s", "solve_s", "errors_s", "total_s"},
    "et": {"volume_s", "embedding_s", "solve_s", "errors_s", "total_s"},
}
SIZES = {"ndof", "nnz", "lu_fill", "levels", "rel_residual", "l2error", "dgerror",
         "peak_rss_mb", "rss_at_fork_mb"}


def test_headline_script_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--p", "2", "--n", "2", "--scale-n", "0", "--k", "1", "--out", str(out)]
    subprocess.run([sys.executable, str(SCRIPT), *argv], check=True, capture_output=True)
    result = json.loads(out.read_text())
    assert set(result) == {"meta", "rows"}
    assert set(result["meta"]) == META
    assert result["meta"]["blas_threads"] == 1
    assert [(row["case"], row["p"], row["n"]) for row in result["rows"]] == [
        (case, 2, 2) for case in CASES
    ]
    for row in result["rows"]:
        assert set(row) == {"case", "p", "n", "kind", "dg", "et", "time_ratio", "l2error_ratio"}
        for method, times in TIMES.items():
            entry = row[method]
            assert set(entry) == times | SIZES
            for key in times:
                assert math.isfinite(entry[key]) and entry[key] > 0, (row["case"], method, key)
            assert entry["rel_residual"] <= 1e-10
            assert 0 < entry["rss_at_fork_mb"] <= entry["peak_rss_mb"]
            # the upwind flow without cycles is swept level by level, the
            # closed flow and the SIP systems reach the LU
            swept = row["case"] == "AR_EXAMPLE"
            assert (entry["lu_fill"] == "swept") == swept
            assert (entry["levels"] is not None) == swept
        assert row["et"]["ndof"] < row["dg"]["ndof"]
        for key in ("time_ratio", "l2error_ratio"):
            assert math.isfinite(row[key]) and row[key] > 0
