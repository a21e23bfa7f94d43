"""Deterministic, scaled TPC-H data generation.

This generator is a substitution for the official ``dbgen`` tool: it produces the same schema, the same key relationships (primary
keys, foreign keys, the ~4 lineitems per order, the 4 suppliers per part) and
value distributions that are close enough to the specification that the
predicate selectivities driving the paper's plan choices are preserved
(shipdate ranges, nation/region filters, brands, containers, ship modes,
market segments, order priorities).  All randomness is derived from a fixed
seed, so every test, example and benchmark sees the same data.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..storage.catalog import Catalog
from ..storage.statistics import synthetic_statistics
from ..storage.table import Table
from ..storage.types import date_to_int
from .schema import (
    BRANDS,
    CONTAINERS,
    MARKET_SEGMENTS,
    NATION_NAMES,
    NATION_REGIONS,
    ORDER_PRIORITIES,
    PART_NAME_WORDS,
    PART_TYPES,
    REGION_NAMES,
    SHIP_MODES,
    scaled_row_count,
    tpch_schemas,
)

#: First and last order dates used by the generator (per the specification).
START_DATE = date_to_int(1992, 1, 1)
END_DATE = date_to_int(1998, 8, 2)

DEFAULT_SEED = 20250622


def _choice(rng: np.random.Generator, values, size: int) -> np.ndarray:
    """Uniform choice from a list of strings as an object array."""
    idx = rng.integers(0, len(values), size=size)
    return np.asarray(values, dtype=object)[idx]


class TpchDataGenerator:
    """Generates all eight TPC-H tables at a given scale factor."""

    def __init__(self, scale_factor: float = 0.01,
                 seed: int = DEFAULT_SEED) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed
        self.schemas = tpch_schemas()

    def rows(self, table: str) -> int:
        """Row count of ``table`` at this generator's scale factor."""
        return scaled_row_count(table, self.scale_factor)

    # ------------------------------------------------------------------

    def generate(self) -> Dict[str, Table]:
        """Generate every table and return them keyed by name."""
        rng = np.random.default_rng(self.seed)
        tables: Dict[str, Table] = {}
        tables["region"] = self._region()
        tables["nation"] = self._nation()
        tables["supplier"] = self._supplier(rng)
        tables["customer"] = self._customer(rng)
        tables["part"] = self._part(rng)
        tables["partsupp"] = self._partsupp(rng)
        tables["orders"] = self._orders(rng)
        tables["lineitem"] = self._lineitem(rng, tables["orders"])
        return tables

    def populate_catalog(self, catalog: Optional[Catalog] = None) -> Catalog:
        """Generate the dataset and register it (with statistics) in a catalog."""
        catalog = catalog or Catalog()
        for table in self.generate().values():
            catalog.register_table(table)
        return catalog

    # -- individual tables -------------------------------------------------

    def _region(self) -> Table:
        n = len(REGION_NAMES)
        return Table(self.schemas["region"], {
            "r_regionkey": np.arange(n, dtype=np.int64),
            "r_name": np.asarray(REGION_NAMES, dtype=object),
        })

    def _nation(self) -> Table:
        n = len(NATION_NAMES)
        return Table(self.schemas["nation"], {
            "n_nationkey": np.arange(n, dtype=np.int64),
            "n_name": np.asarray(NATION_NAMES, dtype=object),
            "n_regionkey": np.asarray(NATION_REGIONS, dtype=np.int64),
        })

    def _supplier(self, rng: np.random.Generator) -> Table:
        n = self.rows("supplier")
        return Table(self.schemas["supplier"], {
            "s_suppkey": np.arange(1, n + 1, dtype=np.int64),
            "s_name": np.asarray(["Supplier#%09d" % i for i in range(1, n + 1)],
                                 dtype=object),
            "s_nationkey": rng.integers(0, len(NATION_NAMES), size=n).astype(np.int64),
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
        })

    def _customer(self, rng: np.random.Generator) -> Table:
        n = self.rows("customer")
        return Table(self.schemas["customer"], {
            "c_custkey": np.arange(1, n + 1, dtype=np.int64),
            "c_name": np.asarray(["Customer#%09d" % i for i in range(1, n + 1)],
                                 dtype=object),
            "c_nationkey": rng.integers(0, len(NATION_NAMES), size=n).astype(np.int64),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
            "c_mktsegment": _choice(rng, MARKET_SEGMENTS, n),
        })

    def _part(self, rng: np.random.Generator) -> Table:
        n = self.rows("part")
        first = _choice(rng, PART_NAME_WORDS, n)
        second = _choice(rng, PART_NAME_WORDS, n)
        names = np.asarray(["%s %s" % (a, b) for a, b in zip(first, second)],
                           dtype=object)
        return Table(self.schemas["part"], {
            "p_partkey": np.arange(1, n + 1, dtype=np.int64),
            "p_name": names,
            "p_brand": _choice(rng, BRANDS, n),
            "p_type": _choice(rng, PART_TYPES, n),
            "p_size": rng.integers(1, 51, size=n).astype(np.int64),
            "p_container": _choice(rng, CONTAINERS, n),
            "p_retailprice": np.round(rng.uniform(900.0, 2000.0, size=n), 2),
        })

    def _partsupp(self, rng: np.random.Generator) -> Table:
        parts = self.rows("part")
        suppliers = self.rows("supplier")
        per_part = 4
        partkeys = np.repeat(np.arange(1, parts + 1, dtype=np.int64), per_part)
        suppkeys = rng.integers(1, suppliers + 1,
                                size=parts * per_part).astype(np.int64)
        return Table(self.schemas["partsupp"], {
            "ps_partkey": partkeys,
            "ps_suppkey": suppkeys,
            "ps_availqty": rng.integers(1, 10_000, size=parts * per_part).astype(np.int64),
            "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, size=parts * per_part), 2),
        })

    def _orders(self, rng: np.random.Generator) -> Table:
        n = self.rows("orders")
        customers = self.rows("customer")
        # Per the spec only two thirds of customers have orders.
        active_customers = max(1, (customers * 2) // 3)
        custkeys = rng.integers(1, active_customers + 1, size=n).astype(np.int64)
        orderdates = rng.integers(START_DATE, END_DATE - 120, size=n).astype(np.int64)
        return Table(self.schemas["orders"], {
            "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
            "o_custkey": custkeys,
            "o_orderstatus": _choice(rng, ["O", "F", "P"], n),
            "o_totalprice": np.round(rng.uniform(1000.0, 400_000.0, size=n), 2),
            "o_orderdate": orderdates,
            "o_orderpriority": _choice(rng, ORDER_PRIORITIES, n),
        })

    def _lineitem(self, rng: np.random.Generator, orders: Table) -> Table:
        target = self.rows("lineitem")
        order_keys = orders.column("o_orderkey")
        order_dates = orders.column("o_orderdate")
        num_orders = order_keys.shape[0]
        # 1..7 lineitems per order, trimmed/extended to hit the target count.
        per_order = rng.integers(1, 8, size=num_orders)
        l_orderkey = np.repeat(order_keys, per_order)
        l_orderdate = np.repeat(order_dates, per_order)
        if l_orderkey.shape[0] > target:
            l_orderkey = l_orderkey[:target]
            l_orderdate = l_orderdate[:target]
        n = l_orderkey.shape[0]
        parts = self.rows("part")
        suppliers = self.rows("supplier")
        shipdate = l_orderdate + rng.integers(1, 122, size=n)
        commitdate = l_orderdate + rng.integers(30, 91, size=n)
        receiptdate = shipdate + rng.integers(1, 31, size=n)
        return Table(self.schemas["lineitem"], {
            "l_orderkey": l_orderkey.astype(np.int64),
            "l_partkey": rng.integers(1, parts + 1, size=n).astype(np.int64),
            "l_suppkey": rng.integers(1, suppliers + 1, size=n).astype(np.int64),
            "l_linenumber": np.ones(n, dtype=np.int64),
            "l_quantity": rng.integers(1, 51, size=n).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(900.0, 100_000.0, size=n), 2),
            "l_discount": np.round(rng.uniform(0.0, 0.10, size=n), 2),
            "l_tax": np.round(rng.uniform(0.0, 0.08, size=n), 2),
            "l_returnflag": _choice(rng, ["R", "A", "N"], n),
            "l_shipdate": shipdate.astype(np.int64),
            "l_commitdate": commitdate.astype(np.int64),
            "l_receiptdate": receiptdate.astype(np.int64),
            "l_shipmode": _choice(rng, SHIP_MODES, n),
        })


def build_catalog(scale_factor: float = 0.01,
                  seed: int = DEFAULT_SEED) -> Catalog:
    """Generate a TPC-H dataset and return a fully analysed catalog."""
    return TpchDataGenerator(scale_factor, seed).populate_catalog()


def statistics_only_catalog(scale_factor: float = 100.0) -> Catalog:
    """A catalog holding only schemas and statistics at a (large) scale factor.

    The planner-only experiments (planner latency, case studies at the paper's
    SF100 cardinalities, the naïve blow-up) use this to plan against 100 GB row
    counts without materialising any data.
    """
    catalog = Catalog()
    schemas = tpch_schemas()
    date_range = (float(START_DATE), float(END_DATE))
    ndv_overrides = {
        ("region", "r_name"): 5,
        ("nation", "n_name"): 25,
        ("nation", "n_regionkey"): 5,
        ("supplier", "s_nationkey"): 25,
        ("customer", "c_nationkey"): 25,
        ("customer", "c_mktsegment"): 5,
        ("part", "p_brand"): 25,
        ("part", "p_type"): 150,
        ("part", "p_size"): 50,
        ("part", "p_container"): 8,
        ("part", "p_name"): 44 * 44,
        ("orders", "o_orderstatus"): 3,
        ("orders", "o_orderpriority"): 5,
        ("orders", "o_orderdate"): 2_400,
        ("lineitem", "l_returnflag"): 3,
        ("lineitem", "l_shipmode"): 7,
        ("lineitem", "l_shipdate"): 2_500,
        ("lineitem", "l_commitdate"): 2_450,
        ("lineitem", "l_receiptdate"): 2_500,
        ("lineitem", "l_quantity"): 50,
    }
    for name, schema in schemas.items():
        rows = scaled_row_count(name, scale_factor)
        ndvs = {}
        ranges = {}
        for column in schema.columns:
            key = (name, column.name)
            if key in ndv_overrides:
                ndvs[column.name] = min(rows, ndv_overrides[key])
            elif schema.is_primary_key_column(column.name):
                ndvs[column.name] = rows
            elif schema.foreign_key_for(column.name) is not None:
                fk = schema.foreign_key_for(column.name)
                parent_rows = scaled_row_count(fk.ref_table, scale_factor)
                # Only two thirds of customers place orders (affects Heuristic 3
                # losslessness and semi-join selectivities involving o_custkey).
                if name == "orders" and column.name == "o_custkey":
                    parent_rows = (parent_rows * 2) // 3
                ndvs[column.name] = min(rows, parent_rows)
            else:
                ndvs[column.name] = max(1, min(rows, 10_000))
        for date_column in ("o_orderdate", "l_shipdate", "l_commitdate",
                            "l_receiptdate"):
            if schema.has_column(date_column):
                ranges[date_column] = date_range
        if schema.has_column("p_size"):
            ranges["p_size"] = (1.0, 50.0)
        if schema.has_column("l_quantity"):
            ranges["l_quantity"] = (1.0, 50.0)
        stats = synthetic_statistics(name, rows, ndvs, ranges)
        catalog.register_schema(schema, stats)
    return catalog
