"""Tests for the 14 TPC-W interaction handlers."""

import pytest

from repro.http.errors import NotFoundError
from repro.tpcw.app import PAGES, TPCWApplication
from repro.tpcw.mix import PAPER_PAGE_NAMES


class TestAllPages:
    def test_fourteen_pages_registered(self, tpcw_app):
        assert len(PAGES) == 14
        for path in PAGES:
            assert tpcw_app.has_route(path)

    def test_every_page_returns_unrendered_template(self, tpcw_app):
        """The paper's modification: every handler returns
        (template_name, data) — 14 return statements changed."""
        from repro.tpcw.mix import BrowsingMix
        from repro.util.rng import RandomStream

        mix = BrowsingMix(RandomStream(5, "t"), customers=120, items=60)
        for path in PAGES:
            result = tpcw_app.handler_for(path)(**mix.params_for(path))
            assert isinstance(result, tuple) and len(result) == 2, path
            template_name, data = result
            assert isinstance(template_name, str), path
            assert isinstance(data, dict), path

    def test_every_page_renders_to_html(self, tpcw_app):
        from repro.tpcw.mix import BrowsingMix
        from repro.util.rng import RandomStream

        mix = BrowsingMix(RandomStream(5, "t"), customers=120, items=60)
        for path in PAGES:
            template_name, data = tpcw_app.handler_for(path)(
                **mix.params_for(path)
            )
            html = tpcw_app.templates.render(template_name, data)
            assert "<html>" in html and "</html>" in html, path

    def test_paper_names_cover_all_pages(self):
        assert set(PAPER_PAGE_NAMES) == set(PAGES)

    def test_templates_cannot_be_interpreted(self, empty_database):
        assert TPCWApplication(empty_database, compiled_templates=True)
        with pytest.raises(ValueError, match="compiled_templates"):
            TPCWApplication(empty_database, compiled_templates=False)


class TestHome:
    def test_greets_known_customer(self, tpcw_app):
        template, data = tpcw_app.home(c_id="1", i_id="1")
        assert template == "home.html"
        assert data["customer"] is not None

    def test_anonymous_visit(self, tpcw_app):
        _, data = tpcw_app.home(c_id="", i_id="1")
        assert data["customer"] is None

    def test_promotions_from_related_items(self, tpcw_app):
        _, data = tpcw_app.home(c_id="1", i_id="2")
        assert 1 <= len(data["promotions"]) <= 5
        for promo in data["promotions"]:
            assert {"i_id", "title", "cost", "author"} <= set(promo)


class TestProductDetail:
    def test_existing_item(self, tpcw_app):
        _, data = tpcw_app.product_detail(i_id="3")
        assert data["item"]["i_id"] == 3
        assert data["author"]["a_lname"]

    def test_missing_item_404(self, tpcw_app):
        with pytest.raises(NotFoundError):
            tpcw_app.product_detail(i_id="99999")


class TestSearch:
    def test_search_request_lists_subjects(self, tpcw_app):
        _, data = tpcw_app.search_request()
        assert len(data["subjects"]) == 24

    def test_search_by_subject_finds_items(self, tpcw_app, fresh_tpcw_database):
        subject = fresh_tpcw_database.execute(
            "SELECT i_subject FROM item WHERE i_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.execute_search(
            search_type="subject", search_string=subject
        )
        assert data["results"]

    def test_search_by_author_lastname(self, tpcw_app, fresh_tpcw_database):
        lname = fresh_tpcw_database.execute(
            "SELECT a_lname FROM author WHERE a_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.execute_search(
            search_type="author", search_string=lname
        )
        assert data["results"]
        # Every result's author surname matches the search.
        for item in data["results"]:
            assert lname.lower() in item["author"].lower()

    def test_search_by_title_substring(self, tpcw_app):
        _, data = tpcw_app.execute_search(
            search_type="title", search_string="The"
        )
        assert data["results"]

    def test_search_no_match(self, tpcw_app):
        _, data = tpcw_app.execute_search(
            search_type="title", search_string="zzzzxqjv"
        )
        assert data["results"] == []

    def test_results_capped_at_50(self, tpcw_app):
        _, data = tpcw_app.execute_search(search_type="title",
                                          search_string="")
        assert len(data["results"]) <= 50


class TestNewProducts:
    def test_sorted_by_pub_date_desc(self, tpcw_app, fresh_tpcw_database):
        subject = fresh_tpcw_database.execute(
            "SELECT i_subject FROM item WHERE i_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.new_products(subject=subject)
        dates = [item["pub_date"] for item in data["items"]]
        assert dates == sorted(dates, reverse=True)

    def test_unknown_subject_empty(self, tpcw_app):
        _, data = tpcw_app.new_products(subject="NOSUCH")
        assert data["items"] == []


class TestBestSellers:
    def test_sorted_by_quantity_sold(self, tpcw_app, fresh_tpcw_database):
        subject = fresh_tpcw_database.execute(
            "SELECT i_subject FROM item WHERE i_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.best_sellers(subject=subject)
        sold = [item["sold"] for item in data["items"]]
        assert sold == sorted(sold, reverse=True)

    def test_counts_match_manual_aggregation(self, tpcw_app,
                                             fresh_tpcw_database):
        _, data = tpcw_app.best_sellers(subject="ARTS")
        for entry in data["items"][:3]:
            manual = fresh_tpcw_database.execute(
                "SELECT SUM(ol_qty) FROM order_line WHERE ol_i_id = %s",
                (entry["i_id"],),
            ).rows[0][0]
            # The page windows on recent orders; manual total >= windowed.
            assert manual >= entry["sold"]


class TestShoppingCartFlow:
    def test_cart_created_on_demand(self, tpcw_app):
        _, data = tpcw_app.shopping_cart(sc_id="0", i_id="1", qty="2")
        assert data["sc_id"] > 0
        assert len(data["lines"]) == 1
        assert data["lines"][0]["qty"] == 2

    def test_adding_same_item_accumulates_qty(self, tpcw_app):
        _, data = tpcw_app.shopping_cart(sc_id="0", i_id="1", qty="1")
        cart = data["sc_id"]
        _, data = tpcw_app.shopping_cart(sc_id=str(cart), i_id="1", qty="2")
        assert data["lines"][0]["qty"] == 3

    def test_multiple_items(self, tpcw_app):
        _, data = tpcw_app.shopping_cart(sc_id="0", i_id="1")
        cart = data["sc_id"]
        _, data = tpcw_app.shopping_cart(sc_id=str(cart), i_id="2")
        assert len(data["lines"]) == 2

    def test_subtotal_is_sum_of_lines(self, tpcw_app):
        _, data = tpcw_app.shopping_cart(sc_id="0", i_id="1", qty="2")
        assert data["subtotal"] == pytest.approx(
            sum(line["total"] for line in data["lines"])
        )

    def test_stale_cart_id_recreated(self, tpcw_app):
        _, data = tpcw_app.shopping_cart(sc_id="99999", i_id="1")
        assert data["sc_id"] != 99999


class TestBuyFlow:
    def test_full_purchase_appends_order(self, tpcw_app, fresh_tpcw_database):
        orders_before = fresh_tpcw_database.row_counts()["orders"]
        _, cart = tpcw_app.shopping_cart(sc_id="0", i_id="1", qty="2")
        _, request = tpcw_app.buy_request(sc_id=str(cart["sc_id"]),
                                          uname="user1")
        assert request["customer"]["c_id"] == 1
        _, confirm = tpcw_app.buy_confirm(sc_id=str(cart["sc_id"]), c_id="1")
        counts = fresh_tpcw_database.row_counts()
        assert counts["orders"] == orders_before + 1
        assert confirm["o_id"] == orders_before + 1
        assert confirm["total"] >= confirm["subtotal"]

    def test_buy_confirm_empties_cart(self, tpcw_app, fresh_tpcw_database):
        _, cart = tpcw_app.shopping_cart(sc_id="0", i_id="1")
        tpcw_app.buy_confirm(sc_id=str(cart["sc_id"]), c_id="1")
        remaining = fresh_tpcw_database.execute(
            "SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = %s",
            (cart["sc_id"],),
        )
        assert remaining.rows == [(0,)]

    def test_buy_confirm_writes_order_lines_and_cc(self, tpcw_app,
                                                   fresh_tpcw_database):
        _, cart = tpcw_app.shopping_cart(sc_id="0", i_id="1")
        cart_id = cart["sc_id"]
        tpcw_app.shopping_cart(sc_id=str(cart_id), i_id="2")
        _, confirm = tpcw_app.buy_confirm(sc_id=str(cart_id), c_id="1")
        lines = fresh_tpcw_database.execute(
            "SELECT COUNT(*) FROM order_line WHERE ol_o_id = %s",
            (confirm["o_id"],),
        )
        assert lines.rows == [(2,)]
        xact = fresh_tpcw_database.execute(
            "SELECT cx_xact_amt FROM cc_xacts WHERE cx_o_id = %s",
            (confirm["o_id"],),
        )
        assert xact.rows[0][0] == pytest.approx(confirm["total"])

    def test_buy_request_new_customer_created(self, tpcw_app,
                                              fresh_tpcw_database):
        customers_before = fresh_tpcw_database.row_counts()["customer"]
        _, data = tpcw_app.buy_request(sc_id="0", fname="New", lname="Person")
        assert fresh_tpcw_database.row_counts()["customer"] == (
            customers_before + 1
        )
        assert data["customer"]["fname"] == "New"

    def test_customer_registration_lookup(self, tpcw_app):
        _, data = tpcw_app.customer_registration(sc_id="0", uname="user2")
        assert data["customer"]["c_id"] == 2

    def test_customer_registration_unknown_uname(self, tpcw_app):
        _, data = tpcw_app.customer_registration(sc_id="0", uname="ghost")
        assert data["customer"] is None


class TestOrders:
    def test_order_inquiry_is_form_only(self, tpcw_app, fresh_tpcw_database):
        before = fresh_tpcw_database.cost_model.statements
        tpcw_app.order_inquiry()
        assert fresh_tpcw_database.cost_model.statements == before

    def test_order_display_most_recent(self, tpcw_app, fresh_tpcw_database):
        customer = fresh_tpcw_database.execute(
            "SELECT o_c_id FROM orders WHERE o_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.order_display(uname=f"user{customer}")
        assert data["order"] is not None
        assert data["lines"]

    def test_order_display_wrong_password(self, tpcw_app,
                                          fresh_tpcw_database):
        customer = fresh_tpcw_database.execute(
            "SELECT o_c_id FROM orders WHERE o_id = 1"
        ).rows[0][0]
        _, data = tpcw_app.order_display(uname=f"user{customer}",
                                         passwd="wrong")
        assert data["order"] is None

    def test_order_display_unknown_user(self, tpcw_app):
        _, data = tpcw_app.order_display(uname="ghost")
        assert data["customer"] is None


class TestAdmin:
    def test_admin_request_shows_item(self, tpcw_app):
        _, data = tpcw_app.admin_request(i_id="5")
        assert data["item"]["i_id"] == 5

    def test_admin_request_missing_item(self, tpcw_app):
        with pytest.raises(NotFoundError):
            tpcw_app.admin_request(i_id="99999")

    def test_admin_response_updates_item(self, tpcw_app,
                                         fresh_tpcw_database):
        tpcw_app.admin_response(i_id="5", image="/img/new.gif",
                                thumbnail="/img/newt.gif", cost="9.99")
        row = fresh_tpcw_database.execute(
            "SELECT i_image, i_thumbnail, i_cost FROM item WHERE i_id = 5"
        ).rows[0]
        assert row == ("/img/new.gif", "/img/newt.gif", 9.99)

    def test_admin_response_recomputes_related(self, tpcw_app,
                                               fresh_tpcw_database):
        tpcw_app.admin_response(i_id="5")
        related = fresh_tpcw_database.execute(
            "SELECT i_related1, i_related2, i_related3, i_related4, "
            "i_related5 FROM item WHERE i_id = 5"
        ).rows[0]
        assert all(isinstance(r, int) for r in related)

    def test_admin_response_excludes_self_from_related(self, tpcw_app):
        _, data = tpcw_app.admin_response(i_id="5")
        assert all(item["i_id"] != 5 for item in data["related_items"])

    def test_admin_response_is_the_only_item_writer(self, tpcw_app,
                                                    fresh_tpcw_database):
        """Only admin-response UPDATEs item (buy-confirm must not touch
        it, or it would suffer the same write-lock penalty — see the
        paper's Table 3 where buy-confirm speeds up 20x)."""
        title_before = fresh_tpcw_database.execute(
            "SELECT i_title FROM item WHERE i_id = 1"
        ).rows
        _, cart = tpcw_app.shopping_cart(sc_id="0", i_id="1", qty="1")
        tpcw_app.buy_confirm(sc_id=str(cart["sc_id"]), c_id="1")
        stock_after = fresh_tpcw_database.execute(
            "SELECT i_title FROM item WHERE i_id = 1"
        ).rows
        assert stock_after == title_before


class TestTemplateLayout:
    def test_all_pages_extend_the_base_layout(self):
        """Every page template uses the Django {% extends %} idiom."""
        from repro.tpcw.templates_source import TEMPLATES

        page_templates = [
            name for name in TEMPLATES
            if name not in ("base.html", "item_row.html")
        ]
        assert len(page_templates) == 14
        for name in page_templates:
            assert '{% extends "base.html" %}' in TEMPLATES[name], name

    def test_rendered_pages_carry_base_chrome(self, tpcw_app):
        template, data = tpcw_app.search_request()
        html = tpcw_app.templates.render(template, data)
        assert "The TPC-W Online Bookstore" in html  # from base.html
        assert "Search the store" in html            # from the child block
