"""Campaign grid declaration: deterministic expansion, validation,
config-path overrides, identity and (de)serialization."""

import pytest

from repro.campaign.grid import (
    Campaign,
    CampaignSpecError,
    coerce_value,
    parse_assignment,
    parse_where,
)
from repro.sim import cache as disk_cache
from repro.sim.runner import RunRequest


def tiny_campaign(**kwargs):
    spec = dict(name="t",
                axes={"workload": ["lbm", "milc"],
                      "variant": ["original", "psa"]},
                fixed={"prefetcher": "spp", "n_accesses": 1000})
    spec.update(kwargs)
    return Campaign(**spec)


class TestExpansion:
    def test_product_order_is_deterministic(self):
        cells = tiny_campaign().cells()
        combos = [(c.param_dict()["workload"], c.param_dict()["variant"])
                  for c in cells]
        assert combos == [("lbm", "original"), ("lbm", "psa"),
                          ("milc", "original"), ("milc", "psa")]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_reexpansion_identical(self):
        campaign = tiny_campaign()
        first, second = campaign.cells(), campaign.cells()
        assert [c.digest for c in first] == [c.digest for c in second]
        assert [c.params for c in first] == [c.params for c in second]

    def test_cell_key_matches_plain_request(self):
        # The whole coordination model rests on campaign cells reusing
        # the engine's run fingerprints: a cell and the equivalent
        # hand-built request must share key and content address.
        cell = Campaign(name="k",
                        axes={"workload": ["lbm"]},
                        fixed={"prefetcher": "spp",
                               "variant": "psa"}).cells()[0]
        plain = RunRequest("lbm", "spp", "psa")
        assert cell.key == plain.key()
        assert cell.digest == disk_cache.key_digest(plain.key())

    def test_excludes_drop_cells(self):
        campaign = tiny_campaign(
            excludes=[{"workload": "lbm", "variant": "psa"}])
        combos = [(c.param_dict()["workload"], c.param_dict()["variant"])
                  for c in campaign.cells()]
        assert ("lbm", "psa") not in combos
        assert len(combos) == 3

    def test_excludes_eliminating_everything_raise(self):
        campaign = tiny_campaign(excludes=[{"workload": "lbm"},
                                           {"workload": "milc"}])
        with pytest.raises(CampaignSpecError, match="every cell"):
            campaign.cells()

    def test_matches_and_label(self):
        cell = tiny_campaign().cells()[1]
        assert cell.matches({"workload": "lbm", "variant": "psa"})
        assert not cell.matches({"workload": "milc"})
        assert "lbm" in cell.label() and "psa" in cell.label()


class TestConfigAxes:
    def test_dotted_path_override_lands_in_request(self):
        campaign = Campaign(name="cfg",
                            axes={"llc.size_bytes": [1 << 20, 2 << 20]},
                            fixed={"workload": "lbm"})
        sizes = [c.request.config.llc.size_bytes
                 for c in campaign.cells()]
        assert sizes == [1 << 20, 2 << 20]

    def test_top_level_config_field(self):
        campaign = Campaign(name="cfg",
                            axes={"ppm_enabled": [True, False]},
                            fixed={"workload": "lbm"})
        assert [c.request.config.ppm_enabled
                for c in campaign.cells()] == [True, False]

    def test_distinct_overrides_distinct_digests(self):
        campaign = Campaign(name="cfg",
                            axes={"llc.size_bytes": [1 << 20, 2 << 20]},
                            fixed={"workload": "lbm"})
        cells = campaign.cells()
        assert cells[0].digest != cells[1].digest

    def test_unknown_path_rejected_at_declaration(self):
        with pytest.raises(CampaignSpecError, match="bogus"):
            Campaign(name="bad", axes={"bogus": [1]})

    def test_type_mismatch_rejected(self):
        with pytest.raises(CampaignSpecError, match="expects an int"):
            Campaign(name="bad",
                     axes={"llc.size_bytes": ["big"]},
                     fixed={"workload": "lbm"}).cells()

    def test_non_scalar_target_rejected(self):
        with pytest.raises(CampaignSpecError, match="non-scalar"):
            Campaign(name="bad", axes={"llc": [1]},
                     fixed={"workload": "lbm"}).cells()

    def test_invalid_geometry_surfaces_as_spec_error(self):
        # 12345 bytes is not a valid cache size; SystemConfig.validate
        # must veto the cell with a message, not crash inside a worker.
        with pytest.raises(CampaignSpecError, match="invalid configuration"):
            Campaign(name="bad", axes={"llc.size_bytes": [12345]},
                     fixed={"workload": "lbm"}).cells()


class TestCellsParse:
    """A cell is parsed as ``repro serve`` parses its ``/submit`` body."""

    @pytest.mark.parametrize("axes, message", [
        ({"workload": ["lbm", "lmb"]}, "unknown workload 'lmb'"),
        ({"workload": ["lbm"], "prefetcher": ["spq"]},
         "unknown prefetcher 'spq'"),
        ({"workload": ["lbm"], "variant": ["psa", "bogus"]},
         "unknown variant 'bogus'"),
        ({"workload": ["lbm"], "l1d": ["ipcq"]}, "unknown l1d 'ipcq'"),
        ({"workload": ["lbm"], "n_accesses": [500.0]},
         "'n_accesses' must be a positive integer"),
    ], ids=["workload", "prefetcher", "variant", "l1d", "float-accesses"])
    def test_rejected_value_fails_the_expansion(self, axes, message):
        campaign = Campaign(name="typo", axes=axes)   # declaring parses none
        with pytest.raises(CampaignSpecError, match=message):
            campaign.cells()

    def test_int_valued_float_axes_take_the_float_key(self):
        cells = Campaign(name="ints", axes={"workload": ["lbm"],
                                            "table_scale": [1, 1.0],
                                            "gb_fraction": [0, 0.0]}).cells()
        plain = RunRequest("lbm", table_scale=1.0, gb_fraction=0.0)
        assert {cell.digest for cell in cells} \
            == {disk_cache.key_digest(plain.key())}


class TestValidation:
    def test_needs_name(self):
        with pytest.raises(CampaignSpecError, match="name"):
            Campaign(name="", axes={"workload": ["lbm"]})

    def test_needs_axes(self):
        with pytest.raises(CampaignSpecError, match="no axes"):
            Campaign(name="t", axes={})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="no values"):
            Campaign(name="t", axes={"workload": []})

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(CampaignSpecError, match="repeats"):
            Campaign(name="t", axes={"workload": ["lbm", "lbm"]})

    def test_axis_fixed_conflict_rejected(self):
        with pytest.raises(CampaignSpecError, match="both an axis"):
            Campaign(name="t", axes={"workload": ["lbm"]},
                     fixed={"workload": "milc"})

    def test_non_scalar_value_rejected(self):
        with pytest.raises(CampaignSpecError, match="JSON scalar"):
            Campaign(name="t", axes={"workload": [["lbm"]]})

    def test_exclude_unknown_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown axis"):
            Campaign(name="t", axes={"workload": ["lbm"]},
                     excludes=[{"variant": "psa"}])


class TestIdentity:
    def test_id_deterministic_and_spec_sensitive(self):
        assert tiny_campaign().campaign_id == tiny_campaign().campaign_id
        other = tiny_campaign(name="other")
        assert other.campaign_id != tiny_campaign().campaign_id

    def test_dict_roundtrip(self):
        campaign = tiny_campaign(
            excludes=[{"workload": "lbm", "variant": "psa"}])
        clone = Campaign.from_dict(campaign.to_dict())
        assert clone.campaign_id == campaign.campaign_id
        assert [c.digest for c in clone.cells()] == \
               [c.digest for c in campaign.cells()]

    def test_save_load_roundtrip(self, tmp_path):
        campaign = tiny_campaign()
        path = campaign.save(tmp_path / "spec.json")
        assert Campaign.load(path).campaign_id == campaign.campaign_id

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="no campaign spec"):
            Campaign.load(tmp_path / "nope.json")

    def test_load_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignSpecError, match="unreadable"):
            Campaign.load(bad)

    def test_from_dict_malformed(self):
        with pytest.raises(CampaignSpecError, match="malformed"):
            Campaign.from_dict({"axes": {"workload": ["lbm"]}})


class TestCliParsing:
    def test_coerce_value_types(self):
        assert coerce_value("true") is True
        assert coerce_value("False") is False
        assert coerce_value("42") == 42
        assert coerce_value("2.5") == 2.5
        assert coerce_value("lbm") == "lbm"

    def test_parse_assignment(self):
        name, values = parse_assignment("llc.size_bytes=1048576,2097152")
        assert name == "llc.size_bytes"
        assert values == [1048576, 2097152]

    def test_parse_assignment_malformed(self):
        for text in ("noequals", "=v", "k="):
            with pytest.raises(CampaignSpecError):
                parse_assignment(text)

    def test_parse_where(self):
        assert parse_where(["workload=lbm", "n_accesses=1000"]) == \
               {"workload": "lbm", "n_accesses": 1000}

    def test_parse_where_malformed(self):
        with pytest.raises(CampaignSpecError):
            parse_where(["oops"])
