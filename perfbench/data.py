"""Seeded inputs for the benchmark: the paper's orders/customer/products.

The generator lives here, not in the program, so that a change to the
program cannot change what the benchmark feeds it.  The documents have
the shape of the paper's running example (Section 2.2):

    <order id="7"><custid>3</custid><date>2006-04-17</date>
      <lineitem price="42.10" quantity="2"><product><id>P00011</id>
      </product></lineitem>...</order>

Exactly 5% of orders satisfy the paper's ``@price > 100`` -- the
selectivity at which an index probe and a collection scan differ most.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PRICE_LOW = 1.0
HIGH_PRICE_LOW = 100.01
PRICE_HIGH = 102.0
MAX_LINEITEMS = 4
QUALIFYING_EVERY = 20

ORDERS_DDL = [("ordid", "INTEGER"), ("orddoc", "XML")]
CUSTOMER_DDL = [("cid", "INTEGER"), ("cdoc", "XML")]
PRODUCTS_DDL = [("id", "VARCHAR(13)"), ("name", "VARCHAR(32)")]


@dataclass(frozen=True)
class Order:
    """One generated order with the facts the write workload's model
    needs to predict query answers without asking the program."""

    ordid: int
    custid: int
    max_price: float
    text: str


@dataclass
class Dataset:
    orders: list[Order] = field(default_factory=list)
    customers: list[str] = field(default_factory=list)
    products: list[tuple[str, str]] = field(default_factory=list)


def product_ids(count: int) -> list[str]:
    return [f"P{index:05d}" for index in range(count)]


class Generator:
    """All randomness of one workload run flows from one seed.

    The properties that set query cost are stratified rather than drawn,
    so they do not vary with the seed: exactly one order in 20 has one
    lineitem priced above 100 (the rest are priced in [1, 100]),
    lineitem counts cycle through 1-4, and customers take turns in a
    seeded order.  The seed picks prices, products, dates and offsets.
    """

    def __init__(self, seed: int, customers: int, products: int):
        self.random = random.Random(seed)
        self.customer_count = customers
        self.product_ids = product_ids(products)
        self.turns = list(range(1, customers + 1))
        self.random.shuffle(self.turns)
        self.offset = self.random.randrange(QUALIFYING_EVERY)

    def order(self, ordid: int) -> Order:
        rng = self.random
        custid = self.turns[(ordid - 1) % self.customer_count]
        # Q14 casts order 4's one product id to VARCHAR, which needs a
        # single lineitem, as in the paper's own example document.
        count = 1 if ordid == 4 else 1 + (ordid + self.offset) % MAX_LINEITEMS
        expensive = (rng.randrange(count)
                     if (ordid + self.offset) % QUALIFYING_EVERY == 0
                     else -1)
        items = []
        max_price = 0.0
        for position in range(count):
            low, high = ((HIGH_PRICE_LOW, PRICE_HIGH)
                         if position == expensive else (PRICE_LOW, 100.0))
            price = f"{rng.uniform(low, high):.2f}"
            max_price = max(max_price, float(price))
            items.append(
                f'<lineitem price="{price}" '
                f'quantity="{rng.randint(1, 9)}">'
                f"<product><id>{rng.choice(self.product_ids)}</id>"
                f"</product></lineitem>")
        text = (f'<order id="{ordid}"><custid>{custid}</custid>'
                f"<date>2006-0{rng.randint(1, 9)}-{rng.randint(10, 28)}"
                f"</date>{''.join(items)}</order>")
        return Order(ordid, custid, max_price, text)

    def customer(self, cid: int) -> str:
        nation = self.random.randint(1, 2)
        return (f'<customer cid="{cid}"><id>{cid}</id>'
                f"<name>Customer {cid}</name><nation>{nation}</nation>"
                f"</customer>")

    def products(self) -> list[tuple[str, str]]:
        adjectives = ["red", "blue", "green", "heavy", "light", "smart"]
        nouns = ["widget", "gadget", "sprocket", "flange", "gear"]
        return [(pid, f"{self.random.choice(adjectives)} "
                      f"{self.random.choice(nouns)} {index}")
                for index, pid in enumerate(self.product_ids)]

    def dataset(self, orders: int) -> Dataset:
        data = Dataset(products=self.products())
        data.customers = [self.customer(cid)
                          for cid in range(1, self.customer_count + 1)]
        data.orders = [self.order(ordid) for ordid in range(1, orders + 1)]
        return data


def load(database, data: Dataset, index_ddl: list[str]) -> None:
    """Create the paper's three tables, insert ``data``, run the DDL."""
    database.create_table("customer", CUSTOMER_DDL)
    database.create_table("orders", ORDERS_DDL)
    database.create_table("products", PRODUCTS_DDL)
    for cid, text in enumerate(data.customers, start=1):
        database.insert("customer", {"cid": cid, "cdoc": text})
    for order in data.orders:
        database.insert("orders", {"ordid": order.ordid,
                                   "orddoc": order.text})
    for pid, name in data.products:
        database.insert("products", {"id": pid, "name": name})
    for ddl in index_ddl:
        database.execute(ddl)
