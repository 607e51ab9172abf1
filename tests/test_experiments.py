from inhernet import experiments


class TestJobMap:
    def test_process_pool_returns_the_serial_results_in_job_order(self, monkeypatch):
        jobs = [-3, 1, -4, 1, -5, 9, -2, 6]
        monkeypatch.setenv("INHERIT_THREADS", "2")
        assert experiments.worker_count() == 2
        assert experiments._map_jobs(abs, jobs) == [abs(j) for j in jobs]

    def test_worker_count_falls_back_to_one(self, monkeypatch):
        for value in ("two", "1.5", ""):
            monkeypatch.setenv("INHERIT_THREADS", value)
            assert experiments.worker_count() == 1
        monkeypatch.delenv("INHERIT_THREADS")
        assert experiments.worker_count() == 1
