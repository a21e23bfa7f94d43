"""The TPC-H workload queries analysed by the paper, in the supported subset.

The paper evaluates the 16 TPC-H queries that involve Bloom filters (Q2-Q5,
Q7-Q12, Q16-Q21) and omits single-table queries (Q1, Q6) and queries that
never produce Bloom filters (Q13-Q15, Q22).  The texts below reproduce each
analysed query's *join block* — the part the paper's per-SPJ-block costing
operates on — with these simplifications:

* correlated / nested sub-queries (Q2's min-cost sub-query, Q4/Q20-22's
  EXISTS chains, Q17/Q18's aggregated sub-queries) are replaced by the
  equivalent join against the referenced tables or dropped when they only
  post-filter the result, because our optimizer (like the paper's costing) is
  scoped to a single query block;
* Q7/Q8's symmetric nation-pair OR predicate is kept as a residual predicate,
  with the implied per-nation IN filters spelled explicitly (the paper's
  system derives them internally) so that predicate transfer has a source;
* select lists are trimmed to the aggregates that drive the result size.
"""

from __future__ import annotations

from typing import Dict, List

#: Queries the paper omits from its analysis.
OMITTED_QUERIES = {1, 6, 13, 14, 15, 22}

#: Queries for which the paper reports BF-CBO picked a different plan than
#: BF-Post (Table 2, red italic query numbers).
PLAN_CHANGED_QUERIES = {5, 7, 8, 9, 11, 12, 16, 20, 21}

QUERY_TEXTS: Dict[int, str] = {
    2: """
        select s_acctbal, s_name, n_name, p_partkey
        from part, supplier, partsupp, nation, region
        where p_partkey = ps_partkey
          and s_suppkey = ps_suppkey
          and s_nationkey = n_nationkey
          and n_regionkey = r_regionkey
          and p_size = 15
          and p_type like '%BRASS'
          and r_name = 'EUROPE'
        order by s_acctbal desc
        limit 100
    """,
    3: """
        select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
               o_orderdate
        from customer, orders, lineitem
        where c_mktsegment = 'BUILDING'
          and c_custkey = o_custkey
          and l_orderkey = o_orderkey
          and o_orderdate < date '1995-03-15'
          and l_shipdate > date '1995-03-15'
        group by l_orderkey, o_orderdate
        order by revenue desc
        limit 10
    """,
    4: """
        select o_orderpriority, count(*) as order_count
        from orders, lineitem
        where l_orderkey = o_orderkey
          and o_orderdate >= date '1993-07-01'
          and o_orderdate < date '1993-10-01'
          and l_commitdate < l_receiptdate
        group by o_orderpriority
        order by o_orderpriority
    """,
    5: """
        select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
        from customer, orders, lineitem, supplier, nation, region
        where c_custkey = o_custkey
          and l_orderkey = o_orderkey
          and l_suppkey = s_suppkey
          and c_nationkey = s_nationkey
          and s_nationkey = n_nationkey
          and n_regionkey = r_regionkey
          and r_name = 'ASIA'
          and o_orderdate >= date '1994-01-01'
          and o_orderdate < date '1995-01-01'
        group by n_name
        order by revenue desc
    """,
    7: """
        select n1.n_name as supp_nation, n2.n_name as cust_nation,
               extract(year from l_shipdate) as l_year,
               sum(l_extendedprice * (1 - l_discount)) as volume
        from supplier, lineitem, orders, customer, nation n1, nation n2
        where s_suppkey = l_suppkey
          and o_orderkey = l_orderkey
          and c_custkey = o_custkey
          and s_nationkey = n1.n_nationkey
          and c_nationkey = n2.n_nationkey
          and n1.n_name in ('FRANCE', 'GERMANY')
          and n2.n_name in ('FRANCE', 'GERMANY')
          and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
               or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
          and l_shipdate between date '1995-01-01' and date '1996-12-31'
        group by n1.n_name, n2.n_name, l_year
        order by supp_nation, cust_nation, l_year
    """,
    8: """
        select extract(year from o_orderdate) as o_year,
               sum(l_extendedprice * (1 - l_discount)) as volume
        from part, supplier, lineitem, orders, customer, nation n1, nation n2,
             region
        where p_partkey = l_partkey
          and s_suppkey = l_suppkey
          and l_orderkey = o_orderkey
          and o_custkey = c_custkey
          and c_nationkey = n1.n_nationkey
          and n1.n_regionkey = r_regionkey
          and s_nationkey = n2.n_nationkey
          and r_name = 'AMERICA'
          and o_orderdate between date '1995-01-01' and date '1996-12-31'
          and p_type = 'ECONOMY ANODIZED STEEL'
        group by o_year
        order by o_year
    """,
    9: """
        select n_name, extract(year from o_orderdate) as o_year,
               sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
                   as amount
        from part, supplier, lineitem, partsupp, orders, nation
        where s_suppkey = l_suppkey
          and ps_suppkey = l_suppkey
          and ps_partkey = l_partkey
          and p_partkey = l_partkey
          and o_orderkey = l_orderkey
          and s_nationkey = n_nationkey
          and p_name like '%green%'
        group by n_name, o_year
        order by n_name, o_year desc
    """,
    10: """
        select c_custkey, c_name,
               sum(l_extendedprice * (1 - l_discount)) as revenue
        from customer, orders, lineitem, nation
        where c_custkey = o_custkey
          and l_orderkey = o_orderkey
          and c_nationkey = n_nationkey
          and o_orderdate >= date '1993-10-01'
          and o_orderdate < date '1994-01-01'
          and l_returnflag = 'R'
        group by c_custkey, c_name
        order by revenue desc
        limit 20
    """,
    11: """
        select ps_partkey, sum(ps_supplycost * ps_availqty) as value
        from partsupp, supplier, nation
        where ps_suppkey = s_suppkey
          and s_nationkey = n_nationkey
          and n_name = 'GERMANY'
        group by ps_partkey
        order by value desc
        limit 100
    """,
    12: """
        select l_shipmode, count(*) as line_count
        from orders, lineitem
        where o_orderkey = l_orderkey
          and l_shipmode in ('MAIL', 'SHIP')
          and l_commitdate < l_receiptdate
          and l_shipdate < l_commitdate
          and l_receiptdate >= date '1994-01-01'
          and l_receiptdate < date '1995-01-01'
        group by l_shipmode
        order by l_shipmode
    """,
    16: """
        select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt
        from partsupp, part
        where p_partkey = ps_partkey
          and p_brand <> 'Brand#45'
          and p_type not like 'MEDIUM POLISHED%'
          and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
        group by p_brand, p_type, p_size
        order by supplier_cnt desc
        limit 100
    """,
    17: """
        select sum(l_extendedprice) as total_price, count(*) as line_count
        from lineitem, part
        where p_partkey = l_partkey
          and p_brand = 'Brand#23'
          and p_container = 'MED BOX'
          and l_quantity < 10
    """,
    18: """
        select c_custkey, o_orderkey, o_totalprice, sum(l_quantity) as total_qty
        from customer, orders, lineitem
        where c_custkey = o_custkey
          and o_orderkey = l_orderkey
          and o_totalprice > 300000
        group by c_custkey, o_orderkey, o_totalprice
        order by o_totalprice desc
        limit 100
    """,
    19: """
        select sum(l_extendedprice * (1 - l_discount)) as revenue
        from lineitem, part
        where p_partkey = l_partkey
          and l_shipmode in ('AIR', 'REG AIR')
          and p_brand in ('Brand#12', 'Brand#23', 'Brand#34')
          and p_container in ('SM CASE', 'SM BOX', 'MED BOX', 'LG CASE')
          and l_quantity between 1 and 30
          and ((p_brand = 'Brand#12' and l_quantity <= 11)
               or (p_brand = 'Brand#23' and l_quantity <= 20)
               or (p_brand = 'Brand#34' and l_quantity <= 30))
    """,
    20: """
        select s_name, count(*) as part_count
        from supplier, nation, partsupp, part
        where s_suppkey = ps_suppkey
          and ps_partkey = p_partkey
          and s_nationkey = n_nationkey
          and n_name = 'CANADA'
          and p_name like 'forest%'
        group by s_name
        order by s_name
    """,
    21: """
        select s_name, count(*) as numwait
        from supplier, lineitem, orders, nation
        where s_suppkey = l_suppkey
          and o_orderkey = l_orderkey
          and s_nationkey = n_nationkey
          and o_orderstatus = 'F'
          and n_name = 'SAUDI ARABIA'
          and l_receiptdate > l_commitdate
        group by s_name
        order by numwait desc
        limit 100
    """,
}

#: Query numbers analysed by the paper, in ascending order.
ANALYZED_QUERIES: List[int] = sorted(QUERY_TEXTS)


def query_text(number: int) -> str:
    """SQL text for TPC-H query ``number`` (raises KeyError if omitted)."""
    return QUERY_TEXTS[number]


def query_name(number: int) -> str:
    """Canonical query name used in reports (``"Q7"``)."""
    return "Q%d" % number
