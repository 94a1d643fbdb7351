"""Top-level package surface tests."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_sixty_second_quickstart_from_readme(self):
        """The README's minimal example must actually work."""
        from repro import (
            Application,
            ConnectionPool,
            Database,
            StagedServer,
            TemplateEngine,
        )
        from repro.http.client import http_request

        app = Application(templates=TemplateEngine(sources={
            "hello.html": "<h1>Hello {{ name }}</h1>",
        }))

        @app.expose("/hello")
        def hello(name="world"):
            return ("hello.html", {"name": name})

        server = StagedServer(app, ConnectionPool(Database(), 8)).start()
        try:
            host, port = server.address
            response = http_request(host, port, "/hello?name=reader")
            assert response.body == b"<h1>Hello reader</h1>"
        finally:
            server.stop()

    def test_simulation_entry_point(self):
        from repro import WorkloadConfig, run_tpcw_simulation

        config = WorkloadConfig.quick(
            clients=5, ramp_up=5, measure=30, cool_down=5,
        )
        results = run_tpcw_simulation("staged", config).stats
        assert results.total_completions() > 0
