"""The 14 TPC-W web interactions as template-returning handlers.

Each handler generates data with SQL on the thread-pinned connection
(``self.getconn()``, the paper's ``getconn()`` idiom) and ends with the
paper's modified return convention — ``return ("page.html", data)`` —
one such return statement per page, 14 in total, exactly the paper's
"only 14 lines of return statements need to be changed".

Query plans are chosen to reproduce the paper's fast/slow split
(§4.2.1): ten pages are index probes or appends ("inherently very
fast"); execute-search, new-products, and best-sellers run scans with
joins, grouping, and sorting ("large and very complex queries"); and
admin-response performs the one UPDATE on the heavily read ``item``
table, which must take the table write lock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.db.engine import Database
from repro.http.errors import NotFoundError
from repro.server.app import Application
from repro.templates.engine import TemplateEngine
from repro.tpcw.names import SUBJECTS
from repro.tpcw.templates_source import TEMPLATES

#: Route paths of the 14 interactions, in the paper's Table 3 order.
PAGES = [
    "/admin_request",
    "/admin_response",
    "/best_sellers",
    "/buy_confirm",
    "/buy_request",
    "/customer_registration",
    "/execute_search",
    "/home",
    "/new_products",
    "/order_display",
    "/order_inquiry",
    "/product_detail",
    "/search_request",
    "/shopping_cart",
]

#: How far back the best-seller window reaches, as in TPC-W's
#: "3333 most recent orders" scaled by the same 1/1000 as the default
#: population.  Configurable via TPCWApplication.
DEFAULT_BESTSELLER_WINDOW = 3333


class TPCWApplication(Application):
    """The TPC-W bookstore wired onto :class:`Application`."""

    def __init__(self, database: Database,
                 bestseller_window: int = DEFAULT_BESTSELLER_WINDOW,
                 image_count: int = 100,
                 image_bytes: int = 2048,
                 compiled_templates: bool = True,
                 fragment_cache: bool = False):
        # Templates always compile.  The parameter survives only
        # because perfbench/server.py passes compiled_templates=True.
        if compiled_templates is not True:
            raise ValueError("templates always compile; "
                             "compiled_templates must be True")
        super().__init__(templates=TemplateEngine(sources=dict(TEMPLATES)))
        if fragment_cache:
            # Activates the {% cache %} tags on the static-ish subject
            # sidebars (home, search_request) and render_cached().
            self.templates.enable_fragment_cache()
        self.database = database
        self.bestseller_window = bestseller_window
        self._register_routes()
        self._register_statics(image_count, image_bytes)

    # ------------------------------------------------------------------
    def _register_routes(self) -> None:
        self.expose("/home", self.home)
        self.expose("/product_detail", self.product_detail)
        self.expose("/search_request", self.search_request)
        self.expose("/execute_search", self.execute_search)
        self.expose("/new_products", self.new_products)
        self.expose("/best_sellers", self.best_sellers)
        self.expose("/shopping_cart", self.shopping_cart)
        self.expose("/customer_registration", self.customer_registration)
        self.expose("/buy_request", self.buy_request)
        self.expose("/buy_confirm", self.buy_confirm)
        self.expose("/order_inquiry", self.order_inquiry)
        self.expose("/order_display", self.order_display)
        self.expose("/admin_request", self.admin_request)
        self.expose("/admin_response", self.admin_response)

    def _register_statics(self, image_count: int, image_bytes: int) -> None:
        # Deterministic fake GIF payloads; content only needs size.
        for name in ("tpclogo", "cart", "search"):
            self.add_static(f"/img/{name}.gif", b"GIF89a" + b"\x00" * 512)
        for i in range(image_count):
            payload = b"GIF89a" + bytes((i + j) % 251 for j in range(image_bytes))
            self.add_static(f"/img/thumb_{i}.gif", payload[: image_bytes // 4])
            self.add_static(f"/img/image_{i}.gif", payload)

    # ------------------------------------------------------------------
    # Small shared helpers
    # ------------------------------------------------------------------
    def _fetch_item_summary(self, cursor, i_id: int) -> Optional[Dict[str, Any]]:
        cursor.execute(
            "SELECT i_id, i_title, i_cost, i_thumbnail, a_fname, a_lname "
            "FROM item JOIN author ON i_a_id = a_id WHERE i_id = %s",
            i_id,
        )
        row = cursor.fetchone()
        if row is None:
            return None
        return {
            "i_id": row[0],
            "title": row[1],
            "cost": row[2],
            "thumbnail": row[3],
            "author": f"{row[4]} {row[5]}",
        }

    def _max_order_id(self, cursor) -> int:
        cursor.execute("SELECT MAX(o_id) FROM orders")
        row = cursor.fetchone()
        return row[0] if row and row[0] is not None else 0

    def _cart_lines(self, cursor, sc_id: int) -> List[Dict[str, Any]]:
        cursor.execute(
            "SELECT scl_i_id, scl_qty, i_title, i_cost, i_thumbnail "
            "FROM shopping_cart_line JOIN item ON scl_i_id = i_id "
            "WHERE scl_sc_id = %s",
            sc_id,
        )
        lines = []
        for i_id, qty, title, cost, thumbnail in cursor.fetchall():
            lines.append({
                "i_id": i_id,
                "qty": qty,
                "title": title,
                "cost": cost,
                "thumbnail": thumbnail,
                "total": qty * cost,
            })
        return lines

    # ------------------------------------------------------------------
    # The 14 interactions
    # ------------------------------------------------------------------
    def home(self, c_id: str = "", i_id: str = "1"):
        """TPC-W home interaction: greeting plus five promotional items."""
        cursor = self.getconn().cursor()
        customer = None
        if c_id:
            cursor.execute(
                "SELECT c_fname, c_lname FROM customer WHERE c_id = %s",
                int(c_id),
            )
            row = cursor.fetchone()
            if row is not None:
                customer = {"fname": row[0], "lname": row[1]}
        cursor.execute(
            "SELECT i_related1, i_related2, i_related3, i_related4, i_related5 "
            "FROM item WHERE i_id = %s",
            int(i_id),
        )
        related = cursor.fetchone() or ()
        promotions = []
        for related_id in related:
            summary = self._fetch_item_summary(cursor, related_id)
            if summary is not None:
                promotions.append(summary)
        cursor.close()
        data = {
            "page_title": "Home",
            "customer": customer,
            "promotions": promotions,
            "subjects": SUBJECTS[:8],
        }
        return ("home.html", data)

    def product_detail(self, i_id: str = "1"):
        """Item page: two primary-key probes."""
        cursor = self.getconn().cursor()
        cursor.execute("SELECT * FROM item WHERE i_id = %s", int(i_id))
        row = cursor.fetchone()
        if row is None:
            cursor.close()
            raise NotFoundError(f"no item {i_id}")
        item = dict(zip([d[0] for d in cursor.description], row))
        cursor.execute(
            "SELECT a_fname, a_lname FROM author WHERE a_id = %s",
            item["i_a_id"],
        )
        author_row = cursor.fetchone() or ("Unknown", "Author")
        author = {"a_fname": author_row[0], "a_lname": author_row[1]}
        cursor.close()
        data = {"page_title": "Product Detail", "item": item, "author": author}
        return ("product_detail.html", data)

    def search_request(self):
        """The search form; no database work."""
        data = {"page_title": "Search", "subjects": SUBJECTS}
        return ("search_request.html", data)

    def execute_search(self, search_type: str = "title",
                       search_string: str = ""):
        """One of the three slow pages: an unindexed scan with a join."""
        cursor = self.getconn().cursor()
        if search_type == "author":
            cursor.execute(
                "SELECT i_id, i_title, i_cost, i_thumbnail, a_fname, a_lname "
                "FROM item JOIN author ON i_a_id = a_id "
                "WHERE a_lname LIKE %s ORDER BY i_title LIMIT 50",
                f"%{search_string}%",
            )
        elif search_type == "subject":
            cursor.execute(
                "SELECT i_id, i_title, i_cost, i_thumbnail, a_fname, a_lname "
                "FROM item JOIN author ON i_a_id = a_id "
                "WHERE i_subject = %s ORDER BY i_title LIMIT 50",
                search_string,
            )
        else:
            cursor.execute(
                "SELECT i_id, i_title, i_cost, i_thumbnail, a_fname, a_lname "
                "FROM item JOIN author ON i_a_id = a_id "
                "WHERE i_title LIKE %s ORDER BY i_title LIMIT 50",
                f"%{search_string}%",
            )
        results = [
            {
                "i_id": row[0],
                "title": row[1],
                "cost": row[2],
                "thumbnail": row[3],
                "author": f"{row[4]} {row[5]}",
            }
            for row in cursor.fetchall()
        ]
        cursor.close()
        data = {
            "page_title": "Search Results",
            "search_type": search_type,
            "search_string": search_string,
            "results": results,
        }
        return ("execute_search.html", data)

    def new_products(self, subject: str = "ARTS"):
        """Slow page: subject scan ordered by publication date."""
        cursor = self.getconn().cursor()
        cursor.execute(
            "SELECT i_id, i_title, i_pub_date, i_cost, i_thumbnail, "
            "a_fname, a_lname "
            "FROM item JOIN author ON i_a_id = a_id "
            "WHERE i_subject = %s ORDER BY i_pub_date DESC, i_title LIMIT 50",
            subject,
        )
        items = [
            {
                "i_id": row[0],
                "title": row[1],
                "pub_date": row[2],
                "cost": row[3],
                "thumbnail": row[4],
                "author": f"{row[5]} {row[6]}",
            }
            for row in cursor.fetchall()
        ]
        cursor.close()
        data = {"page_title": "New Products", "subject": subject, "items": items}
        return ("new_products.html", data)

    def best_sellers(self, subject: str = "ARTS"):
        """The slowest page: scan + three-way join + group + sort over
        the most recent orders window."""
        cursor = self.getconn().cursor()
        max_order = self._max_order_id(cursor)
        window_start = max(0, max_order - self.bestseller_window)
        cursor.execute(
            "SELECT ol_i_id, i_title, a_fname, a_lname, SUM(ol_qty) AS sold "
            "FROM order_line "
            "JOIN orders ON ol_o_id = o_id "
            "JOIN item ON ol_i_id = i_id "
            "JOIN author ON i_a_id = a_id "
            "WHERE o_id > %s AND i_subject = %s "
            "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 50",
            (window_start, subject),
        )
        items = [
            {
                "i_id": row[0],
                "title": row[1],
                "author": f"{row[2]} {row[3]}",
                "sold": row[4],
            }
            for row in cursor.fetchall()
        ]
        cursor.close()
        data = {"page_title": "Best Sellers", "subject": subject, "items": items}
        return ("best_sellers.html", data)

    def shopping_cart(self, sc_id: str = "0", i_id: str = "", qty: str = "1"):
        """Create/refresh the cart, optionally adding an item."""
        cursor = self.getconn().cursor()
        cart_id = int(sc_id) if sc_id else 0
        if cart_id:
            cursor.execute(
                "SELECT sc_id FROM shopping_cart WHERE sc_id = %s", cart_id
            )
            if cursor.fetchone() is None:
                cart_id = 0
        if not cart_id:
            cursor.execute(
                "INSERT INTO shopping_cart (sc_time) VALUES ('2008-01-01')"
            )
            cart_id = cursor.lastrowid
        if i_id:
            item_id = int(i_id)
            quantity = max(1, int(qty))
            cursor.execute(
                "SELECT scl_id, scl_qty FROM shopping_cart_line "
                "WHERE scl_sc_id = %s AND scl_i_id = %s",
                (cart_id, item_id),
            )
            existing = cursor.fetchone()
            if existing is not None:
                cursor.execute(
                    "UPDATE shopping_cart_line SET scl_qty = %s "
                    "WHERE scl_id = %s",
                    (existing[1] + quantity, existing[0]),
                )
            else:
                cursor.execute(
                    "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, "
                    "scl_qty) VALUES (%s, %s, %s)",
                    (cart_id, item_id, quantity),
                )
        lines = self._cart_lines(cursor, cart_id)
        cursor.close()
        data = {
            "page_title": "Shopping Cart",
            "sc_id": cart_id,
            "lines": lines,
            "subtotal": sum(line["total"] for line in lines),
        }
        return ("shopping_cart.html", data)

    def customer_registration(self, sc_id: str = "0", uname: str = ""):
        """Returning-customer lookup or blank registration form."""
        customer = None
        if uname:
            cursor = self.getconn().cursor()
            cursor.execute(
                "SELECT c_id, c_uname, c_fname, c_lname FROM customer "
                "WHERE c_uname = %s",
                uname,
            )
            row = cursor.fetchone()
            cursor.close()
            if row is not None:
                customer = {
                    "c_id": row[0],
                    "uname": row[1],
                    "fname": row[2],
                    "lname": row[3],
                }
        data = {
            "page_title": "Customer Registration",
            "sc_id": int(sc_id) if sc_id else 0,
            "customer": customer,
        }
        return ("customer_registration.html", data)

    def buy_request(self, sc_id: str = "0", uname: str = "",
                    passwd: str = "", fname: str = "", lname: str = ""):
        """Identify (or create) the customer; show the order summary."""
        cursor = self.getconn().cursor()
        cart_id = int(sc_id) if sc_id else 0
        customer = None
        if uname:
            cursor.execute(
                "SELECT c_id, c_fname, c_lname, c_addr_id, c_discount "
                "FROM customer WHERE c_uname = %s",
                uname,
            )
            row = cursor.fetchone()
            if row is not None:
                customer = {
                    "c_id": row[0], "fname": row[1], "lname": row[2],
                    "addr_id": row[3], "discount": row[4],
                }
        if customer is None:
            # New customer: create an address and a customer row.
            cursor.execute(
                "INSERT INTO address (addr_street1, addr_street2, addr_city, "
                "addr_state, addr_zip, addr_co_id) "
                "VALUES ('1 Main St', '', 'Williamsburg', 'VA', '23187', 1)"
            )
            addr_id = cursor.lastrowid
            new_fname = fname or "New"
            new_lname = lname or "Customer"
            cursor.execute(
                "INSERT INTO customer (c_uname, c_passwd, c_fname, c_lname, "
                "c_addr_id, c_discount, c_balance, c_ytd_pmt) "
                "VALUES (%s, %s, %s, %s, %s, 0.0, 0.0, 0.0)",
                (f"new{addr_id}", "pw", new_fname, new_lname, addr_id),
            )
            customer = {
                "c_id": cursor.lastrowid, "fname": new_fname,
                "lname": new_lname, "addr_id": addr_id, "discount": 0.0,
            }
        cursor.execute(
            "SELECT addr_street1, addr_city, addr_state, addr_zip, co_name "
            "FROM address JOIN country ON addr_co_id = co_id "
            "WHERE addr_id = %s",
            customer["addr_id"],
        )
        addr_row = cursor.fetchone() or ("", "", "", "", "")
        address = {
            "street1": addr_row[0], "city": addr_row[1],
            "state": addr_row[2], "zip": addr_row[3], "country": addr_row[4],
        }
        lines = self._cart_lines(cursor, cart_id)
        cursor.close()
        subtotal = sum(line["total"] for line in lines)
        discounted = subtotal * (1.0 - customer["discount"] / 100.0)
        tax = discounted * 0.0825
        data = {
            "page_title": "Buy Request",
            "sc_id": cart_id,
            "customer": customer,
            "address": address,
            "lines": lines,
            "subtotal": discounted,
            "tax": tax,
            "total": discounted + tax,
        }
        return ("buy_request.html", data)

    def buy_confirm(self, sc_id: str = "0", c_id: str = "1"):
        """Place the order: appends to orders / order_line / cc_xacts.

        All writes here are inserts (MyISAM concurrent inserts — they do
        not wait for readers), plus the cart-line cleanup; the paper's
        measurements show this page speeding up 20x under the modified
        server, which requires it *not* to contend with the scans.  The
        write group is wrapped in a transaction so a mid-purchase
        failure cannot leave a half-written order behind.
        """
        connection = self.getconn()
        cursor = connection.cursor()
        cart_id = int(sc_id) if sc_id else 0
        customer_id = int(c_id) if c_id else 1
        cursor.execute(
            "SELECT c_addr_id, c_discount FROM customer WHERE c_id = %s",
            customer_id,
        )
        row = cursor.fetchone() or (1, 0.0)
        addr_id, discount = row
        lines = self._cart_lines(cursor, cart_id)
        subtotal = sum(line["total"] for line in lines) * (1.0 - discount / 100.0)
        tax = subtotal * 0.0825
        total = subtotal + tax
        ship_type = "FEDEX"
        with connection.transaction():
            cursor.execute(
                "INSERT INTO orders (o_c_id, o_date, o_sub_total, o_tax, "
                "o_total, o_ship_type, o_ship_date, o_bill_addr_id, "
                "o_ship_addr_id, o_status) VALUES (%s, '2008-06-01', %s, %s, "
                "%s, %s, '2008-06-03', %s, %s, 'PENDING')",
                (customer_id, subtotal, tax, total, ship_type, addr_id,
                 addr_id),
            )
            o_id = cursor.lastrowid
            for line in lines:
                cursor.execute(
                    "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, "
                    "ol_discount, ol_comments) VALUES (%s, %s, %s, %s, '')",
                    (o_id, line["i_id"], line["qty"], discount),
                )
            cursor.execute(
                "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, "
                "cx_expire, cx_auth_id, cx_xact_amt, cx_xact_date, cx_co_id) "
                "VALUES (%s, 'VISA', '4111111111111111', 'CARD HOLDER', "
                "'2010-01-01', 'AUTH-OK', %s, '2008-06-01', 1)",
                (o_id, total),
            )
            if cart_id:
                cursor.execute(
                    "DELETE FROM shopping_cart_line WHERE scl_sc_id = %s",
                    cart_id,
                )
        cursor.close()
        data = {
            "page_title": "Order Confirmed",
            "o_id": o_id,
            "lines": lines,
            "subtotal": subtotal,
            "tax": tax,
            "total": total,
            "ship_type": ship_type,
        }
        return ("buy_confirm.html", data)

    def order_inquiry(self):
        """The order-status form; no database work."""
        data = {"page_title": "Order Inquiry"}
        return ("order_inquiry.html", data)

    def order_display(self, uname: str = "", passwd: str = ""):
        """Most recent order of a customer: all index probes."""
        cursor = self.getconn().cursor()
        customer = None
        order = None
        lines: List[Dict[str, Any]] = []
        if uname:
            cursor.execute(
                "SELECT c_id, c_fname, c_lname, c_passwd FROM customer "
                "WHERE c_uname = %s",
                uname,
            )
            row = cursor.fetchone()
            if row is not None and (not passwd or passwd == row[3]):
                customer = {"c_id": row[0], "fname": row[1], "lname": row[2]}
                cursor.execute(
                    "SELECT o_id, o_date, o_sub_total, o_tax, o_total, "
                    "o_ship_type, o_ship_date, o_status FROM orders "
                    "WHERE o_c_id = %s ORDER BY o_date DESC, o_id DESC LIMIT 1",
                    customer["c_id"],
                )
                order_row = cursor.fetchone()
                if order_row is not None:
                    order = {
                        "o_id": order_row[0], "o_date": order_row[1],
                        "o_sub_total": order_row[2], "o_tax": order_row[3],
                        "o_total": order_row[4], "o_ship_type": order_row[5],
                        "o_ship_date": order_row[6], "o_status": order_row[7],
                    }
                    cursor.execute(
                        "SELECT i_title, ol_qty, i_cost FROM order_line "
                        "JOIN item ON ol_i_id = i_id WHERE ol_o_id = %s",
                        order["o_id"],
                    )
                    lines = [
                        {"title": r[0], "qty": r[1], "cost": r[2]}
                        for r in cursor.fetchall()
                    ]
        cursor.close()
        data = {
            "page_title": "Order Display",
            "customer": customer,
            "order": order,
            "lines": lines,
        }
        return ("order_display.html", data)

    def admin_request(self, i_id: str = "1"):
        """Admin form for one item: a primary-key probe."""
        cursor = self.getconn().cursor()
        cursor.execute(
            "SELECT i_id, i_title, i_image, i_thumbnail, i_cost FROM item "
            "WHERE i_id = %s",
            int(i_id),
        )
        row = cursor.fetchone()
        cursor.close()
        if row is None:
            raise NotFoundError(f"no item {i_id}")
        item = {
            "i_id": row[0], "i_title": row[1], "i_image": row[2],
            "i_thumbnail": row[3], "i_cost": row[4],
        }
        data = {"page_title": "Admin Request", "item": item}
        return ("admin_request.html", data)

    def admin_response(self, i_id: str = "1", image: str = "",
                       thumbnail: str = "", cost: str = ""):
        """The one page that UPDATEs the frequently read ``item`` table.

        Recomputes the item's related list from recent sales (a slow
        grouped join, like best-sellers) and then runs an UPDATE, which
        must take the table write lock and wait for every in-flight
        reader of ``item`` — the mechanism behind this page's slowdown
        on the modified server (paper §4.2.1).
        """
        cursor = self.getconn().cursor()
        item_id = int(i_id)
        max_order = self._max_order_id(cursor)
        window_start = max(0, max_order - self.bestseller_window)
        cursor.execute(
            "SELECT ol_i_id, i_title, SUM(ol_qty) AS sold "
            "FROM order_line "
            "JOIN orders ON ol_o_id = o_id "
            "JOIN item ON ol_i_id = i_id "
            "WHERE o_id > %s AND ol_i_id <> %s "
            "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5",
            (window_start, item_id),
        )
        related_rows = cursor.fetchall()
        related_ids = [row[0] for row in related_rows]
        while len(related_ids) < 5:
            related_ids.append(item_id)
        new_image = image or f"/img/image_{item_id % 100}.gif"
        new_thumbnail = thumbnail or f"/img/thumb_{item_id % 100}.gif"
        assignments = (
            "i_related1 = %s, i_related2 = %s, i_related3 = %s, "
            "i_related4 = %s, i_related5 = %s, i_image = %s, "
            "i_thumbnail = %s, i_pub_date = '2008-06-01'"
        )
        params = related_ids + [new_image, new_thumbnail]
        if cost:
            assignments += ", i_cost = %s"
            params.append(float(cost))
        cursor.execute(
            f"UPDATE item SET {assignments} WHERE i_id = %s",
            params + [item_id],
        )
        cursor.execute(
            "SELECT i_id, i_title, i_cost FROM item WHERE i_id = %s", item_id
        )
        row = cursor.fetchone()
        item = {"i_id": row[0], "i_title": row[1], "i_cost": row[2]}
        cursor.close()
        related_items = [
            {"i_id": r[0], "title": r[1]} for r in related_rows
        ]
        data = {
            "page_title": "Admin Response",
            "item": item,
            "related_items": related_items,
        }
        return ("admin_response.html", data)


def build_tpcw_app(database: Database, **kwargs) -> TPCWApplication:
    """Convenience constructor used by examples and the harness."""
    return TPCWApplication(database, **kwargs)
