"""Tests for non-blocking point-to-point operations."""

from repro.simmpi import run_ranks


class TestIsend:
    def test_isend_wait_roundtrip(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.isend({"a": 7}, dest=1, tag=11)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=11)
            return req.wait()

        report = run_ranks(2, body)
        assert report.results[1] == {"a": 7}

    def test_isend_complete_immediately(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.isend(1, dest=1)
                return req.done
            comm.recv(source=0)
            return None

        assert run_ranks(2, body).results[0] is True


class TestIrecv:
    def test_test_polling(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=99)  # wait for the probe signal
                comm.send("payload", dest=1, tag=1)
                return None
            req = comm.irecv(source=0, tag=1)
            done_before, _ = req.test()
            comm.send("go", dest=0, tag=99)
            payload = req.wait()
            done_after, payload2 = req.test()
            return done_before, payload, done_after, payload2

        report = run_ranks(2, body)
        done_before, payload, done_after, payload2 = report.results[1]
        assert done_before is False
        assert payload == "payload"
        assert done_after is True and payload2 == "payload"

    def test_test_succeeds_when_message_waiting(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=3)
                comm.recv(source=1, tag=4)  # wait for the ack
                return None
            comm.recv(source=0, tag=3)  # ensure delivery...
            comm.send("ack", dest=0, tag=4)
            return None

        run_ranks(2, body)  # plumbing sanity

    def test_irecv_multiple_outstanding(self):
        def body(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.isend(i, dest=1, tag=i)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in (2, 0, 1)]
            return [r.wait() for r in reqs]

        report = run_ranks(2, body)
        assert report.results[1] == [2, 0, 1]

    def test_wait_idempotent(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("v", dest=1)
                return None
            req = comm.irecv(source=0)
            return req.wait(), req.wait()

        assert run_ranks(2, body).results[1] == ("v", "v")

    def test_stats_counted_once(self):
        def body(comm):
            if comm.rank == 0:
                comm.isend(b"xxxx", dest=1)
                return None
            req = comm.irecv(source=0)
            req.wait()
            req.test()
            return comm.stats.messages_received

        assert run_ranks(2, body).results[1] == 1

    def test_clock_advances_on_completion(self):
        from repro.simmpi import CostModel

        cm = CostModel(latency=1.0, bandwidth=1e9, overhead=0.0)

        def body(comm):
            if comm.rank == 0:
                comm.isend(b"x", dest=1)
                return comm.clock
            return comm.irecv(source=0).wait() and comm.clock

        report = run_ranks(2, body, cost_model=cm)
        assert report.clocks[1] >= 1.0
