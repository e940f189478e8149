import json

from dwmerge.report import (AmbiguousFill, CompletedAttribute, ConflictEcho,
                            CorrespondenceEcho, DimensionPairEcho, MergeReport,
                            PrunedHierarchy, TableCount, report_to_dict)


def test_report_rendering_names_and_orders_every_key():
    report = MergeReport(
        "star", "shop", "0.1.0", {"conflict": "left"},
        tables=[TableCount("customer", "dimension", 10, None, 0, 10)],
        completions=[CompletedAttribute("customer", "Region", 8, 6, 2, 16)],
        correspondences=[CorrespondenceEcho("customer.City", "client.city", "City",
                                             0.5, "edit")],
        conflicts=[ConflictEcho("sales", "C01|P1", "Quantity", "3", "4", "3")],
        ambiguous_fills=[AmbiguousFill("customer", "C09", "Region", "C07")],
        pruned=[PrunedHierarchy("customer", "H3", "subsumedByMerged")],
        dimension_pairs=[DimensionPairEcho("customer", "client", "customer")])
    expected = {
        "formatVersion": 1,
        "tool": {"name": "dwmerge", "version": "0.1.0"},
        "result": "star",
        "schemaName": "shop",
        "config": {"conflict": "left"},
        "tables": [{"table": "customer", "kind": "dimension", "rowsLeft": 10,
                    "rowsRight": None, "rowsShared": 0, "rowsMerged": 10}],
        "completedAttributes": [{"table": "customer", "attribute": "Region",
                                 "nonNullLeft": 8, "nonNullRight": 6, "filled": 2,
                                 "nonNullMerged": 16}],
        "correspondences": [{"left": "customer.City", "right": "client.city",
                             "unified": "City", "score": 0.5, "source": "edit"}],
        "conflicts": [{"table": "sales", "key": "C01|P1", "attribute": "Quantity",
                       "left": "3", "right": "4", "chosen": "3"}],
        "ambiguousFills": [{"table": "customer", "key": "C09", "attribute": "Region",
                            "donor": "C07"}],
        "prunedHierarchies": [{"dimension": "customer", "hierarchy": "H3",
                               "reason": "subsumedByMerged"}],
        "dimensionPairs": [{"left": "customer", "right": "client", "merged": "customer"}],
    }
    # json.dumps keeps insertion order, so equal texts pin the key order too.
    assert json.dumps(report_to_dict(report)) == json.dumps(expected)
