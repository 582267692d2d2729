package server

import (
	"bpwrapper/internal/obs"
)

// RegisterObs adds the server's counters to reg, so the same /metrics and
// /debug/vars endpoints (and bpstat) that cover the pool cover its
// network front-end. Naming follows the repo convention: bpw_server_*.
// A scrape renders one Stats snapshot; only the latency histograms and
// the server's state and limit are read beside it.
func (s *Server) RegisterObs(reg *obs.Registry) {
	reg.Register(func(emit func(obs.Metric)) {
		st := s.Stats()
		counter := func(name, help string, v int64) {
			emit(obs.Metric{Name: name, Help: help, Type: obs.Counter, Value: float64(v)})
		}
		gauge := func(name, help string, v int64) {
			emit(obs.Metric{Name: name, Help: help, Type: obs.Gauge, Value: float64(v)})
		}
		counter("bpw_server_conns_accepted_total", "Connections accepted", st.Accepted)
		gauge("bpw_server_conns_active", "Connections currently served", st.Active)
		gauge("bpw_server_inflight", "Requests decoded but not yet answered", st.Inflight)
		counter("bpw_server_bytes_in_total", "Bytes read from client sockets", st.BytesIn)
		counter("bpw_server_bytes_out_total", "Bytes written to client sockets", st.BytesOut)
		counter("bpw_server_bad_frames_total", "Malformed frames and unknown opcodes", st.BadFrames)
		counter("bpw_server_write_timeouts_total", "Connections abandoned on write backpressure", st.WriteTimeouts)
		counter("bpw_server_drained_conns_total", "Connections retired by a drain", st.DrainedConns)
		gauge("bpw_server_draining", "1 while the server is draining or closed", boolGauge(s.state.Load() != stateRunning))

		for op := byte(1); op < opMax; op++ {
			emit(obs.Metric{
				Name:   "bpw_server_requests_total",
				Help:   "Requests decoded, by operation",
				Type:   obs.Counter,
				Labels: [][2]string{{"op", opName(op)}},
				Value:  float64(st.Requests[opName(op)]),
			})
		}
		for code := byte(0); code < statusMax; code++ {
			emit(obs.Metric{
				Name:   "bpw_server_responses_total",
				Help:   "Responses sent, by status",
				Type:   obs.Counter,
				Labels: [][2]string{{"status", statusName(code)}},
				Value:  float64(st.Responses[statusName(code)]),
			})
		}
		for op := byte(1); op < opMax; op++ {
			if h := s.c.lat[op]; h != nil {
				snap := h.Snapshot()
				emit(obs.Metric{
					Name:   "bpw_server_op_seconds",
					Help:   "Request latency by operation, from the previous request's end (or the read that delivered this one) to its response buffered: includes decoding its frame",
					Type:   obs.Histogram,
					Labels: [][2]string{{"op", opName(op)}},
					Hist:   &snap,
				})
			}
		}
		gauge("bpw_server_max_conns", "Configured connection limit", int64(s.cfg.MaxConns))
	})
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
