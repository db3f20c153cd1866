"""Default reports are pinned byte for byte.

The hashes are sha256(json.dumps(report.to_json_dict(), indent=2) + "\\n")
at Config(), recorded when the catalog was frozen into perfbench/graphs/:
the nine small builtins from its reference.json entry "catalog-small",
soccer-doubled from "soccer-sampled" and hybrid from "hybrid-enum" (both
workloads run at the values of Config()).  They are copied here on purpose:
a change that alters a report must update this table and say so in
CHANGES.md.  Every certificate of each report must also re-verify against
the graph it was computed from.
"""

import hashlib
import json

import pytest

from graphperiod import catalog
from graphperiod.bounds import analyze, verify_certificate
from graphperiod.config import Config

REPORT_SHA256 = {
    "doubled-cycle-g3": "2939007f6335de56a77b35283d558764ee886a545ed3b0b8e759c7b605c88bb8",
    "doubled-cycle-g4": "29d48f9f09d842d9ba6e79af90ec9f61580d01a2ae3ab52a8f5a8924cc852ef6",
    "doubled-cycle-g5": "14793a4e3edd1491ad206fe6fc3c421b0797991d5de17e57371b44b02e8ae2cb",
    "doubled-cycle-g6": "d7c49e68be2a634e9fffd17d64be7a3760946ac919ab810b7da3f29828a80629",
    "doubled-cycle-g7": "79ac262d29692640d26c9989f6dadc5fa65d0b350381bb700f7bcb25768897f4",
    "doubled-cycle-g8": "00879e7bd727aef55fcf9fa253b2304fe0908cdb752edb2959359b5b04fd0ae9",
    "doubled-k4": "3c116b8c90f0d369594e8a0a325c9e3faf0cc556aa8cec0cae1bf29822bec61c",
    "k34": "249d3b478215f2f2a5f1c845826a8a1bdc6ece42021bfc85db0124d1bd09b3b0",
    "k5": "4287c61d139d97ddd9557d0c56a861e44dffc64b85564fbb9c30ababbc498117",
    # the two large reports: sampled cyclic scan, and full enumeration
    "soccer-doubled": "e6b3faac1f1dfa4f6398f68a09a4f8736c64c025385060d3948ea266b53d4a38",
    "hybrid": "6a04368e2483525beb2fdb7c77e620482ec70d762d962c42723bd8d9ad3953b3",
}


# soccer-doubled at another seed samples other cyclic subgroups; the hash
# was computed by a scan that ran every restriction, so it also checks that
# skipping the ones that can only repeat a held divisor is exact
SEEDED_REPORT_SHA256 = {
    ("soccer-doubled", 1): "c4e959c36ad4552c36a30e92dece9a1c81328877c311c0df6cecbeb01856f55d",
    ("soccer-doubled", 2): "e1a1cc3cf425cbb4e89ce62e1313f23d4cc46932858d13ccd07701161d4cbf9a",
    ("soccer-doubled", 3): "a4416f3447290424f65bf188551229d4429a6f217d30b3016cdcf203aef0c878",
}

# Config(bar_cap=256) at the default seed: the reports of the five builtins
# whose Sylow subgroups of order 64-256 then get a SylowExact certificate
BAR_CAP_256_REPORT_SHA256 = {
    "doubled-cycle-g5": "143861bb502bdce457ebccc686b6c750f6bade1d8ccac4be42b5d63fa4690818",
    "doubled-cycle-g6": "59379071a8239c7e0808db425937160d5b4a7ba5572d4d224fca00b52065532c",
    "doubled-cycle-g7": "1e482938b089d6b2f37ff493f31da527dc711e6e3bbd1cc1d05b154f91cb841b",
    "doubled-cycle-g8": "2cf50f6c41dd538b13c319a262e654c39918284289b40061d58018db5dd23f38",
    "doubled-k4": "e297737c54df6976aaaba26a15f396df06cf5fb8c03fcce4c853579d33029e6c",
}

# Config(bar_cap=256) for the other six builtins at the default seed, and
# for soccer-doubled at seeds 1-3, so that every builtin is pinned at both
# caps.  The first four hash as their default reports (no Sylow subgroup
# above 32); hybrid's invariant subgraph sub-0 then gets its exact order,
# and the status lines name cap 256.  No SylowExact is asserted: hybrid
# and soccer-doubled get none.
BAR_CAP_256_OTHER_REPORT_SHA256 = {
    ("doubled-cycle-g3", 0): "2939007f6335de56a77b35283d558764ee886a545ed3b0b8e759c7b605c88bb8",
    ("doubled-cycle-g4", 0): "29d48f9f09d842d9ba6e79af90ec9f61580d01a2ae3ab52a8f5a8924cc852ef6",
    ("k34", 0): "249d3b478215f2f2a5f1c845826a8a1bdc6ece42021bfc85db0124d1bd09b3b0",
    ("k5", 0): "4287c61d139d97ddd9557d0c56a861e44dffc64b85564fbb9c30ababbc498117",
    ("hybrid", 0): "3e576c02d9b85205ff9c072ea56f19c4bf3552615ef422e673dd09770a862a13",
    ("soccer-doubled", 0): "46399dcd569a24b669ed1b49bf225babbf05a4ee3c81f5ca449787cc77ed0a71",
    ("soccer-doubled", 1): "62b10cbe53073bb12dc73188cfdb752ce0e23d18703edccf1cbad48ab26c56ec",
    ("soccer-doubled", 2): "b97d207d0030f627889178a2342773f09a97cdc6d6c09901cbbb94186fd21ccb",
    ("soccer-doubled", 3): "3eb36324890526a3b1fc89f36cad556bc537380ee079695658ee8a248a177ddb",
}

@pytest.fixture(scope="module", params=sorted(REPORT_SHA256))
def analyzed(request):
    """One default analysis per builtin, shared by the tests below."""
    g = catalog.builtin(request.param)
    return request.param, g, analyze(g, Config())


def test_default_report_hash(analyzed):
    name, _, report = analyzed
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


def test_every_certificate_reverifies(analyzed):
    _, g, report = analyzed
    rejected = [c for c in report.certificates if not verify_certificate(g, c)]
    assert rejected == []


@pytest.mark.parametrize("name,seed", sorted(SEEDED_REPORT_SHA256))
def test_seeded_report_hash(name, seed):
    report = analyze(catalog.builtin(name), Config(seed=seed))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_REPORT_SHA256[(name, seed)]


@pytest.mark.parametrize("name", sorted(BAR_CAP_256_REPORT_SHA256))
def test_bar_cap_256_report_hash(name):
    g = catalog.builtin(name)
    config = Config(bar_cap=256)
    report = analyze(g, config)
    assert any(c.rule == "SylowExact" for c in report.certificates)
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BAR_CAP_256_REPORT_SHA256[name]
    assert all(verify_certificate(g, c, config) for c in report.certificates)


@pytest.mark.parametrize("name,seed", sorted(BAR_CAP_256_OTHER_REPORT_SHA256))
def test_bar_cap_256_other_report_hash(name, seed):
    g = catalog.builtin(name)
    config = Config(seed=seed, bar_cap=256)
    report = analyze(g, config)
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BAR_CAP_256_OTHER_REPORT_SHA256[(name, seed)]
    assert all(verify_certificate(g, c, config) for c in report.certificates)
