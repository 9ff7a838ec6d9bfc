package serve

import (
	"encoding/json"
	"net/http"
)

// Stats is the serving loop's counter snapshot, as served by the
// /stats endpoint.
type Stats struct {
	// Round counts served control quanta.
	Round int64 `json:"round"`
	// Submitted and Overflow are the gateway's intake counters.
	Submitted int64 `json:"submitted"`
	Overflow  int64 `json:"overflow"`
	// Accepted, Shed, and Invalid are admission outcomes; Completions
	// counts requests served to completion.
	Accepted    int64 `json:"accepted"`
	Shed        int64 `json:"shed"`
	Invalid     int64 `json:"invalid"`
	Completions int64 `json:"completions"`
	// TwinAdvises, TwinCandidates, and TwinRounds are the twin's work
	// counters — snapshots searched, candidate counts replayed, replica
	// rounds simulated — and TwinErrors the snapshots the async twin
	// failed to advise on (all zero without a twin).
	TwinAdvises    int64 `json:"twin_advises"`
	TwinCandidates int64 `json:"twin_candidates"`
	TwinRounds     int64 `json:"twin_rounds"`
	TwinErrors     int64 `json:"twin_errors"`
}

// Stats snapshots the serving counters. Counters are read
// individually, so a snapshot taken mid-round may be transiently
// inconsistent (e.g. submitted not yet drained) but never torn.
func (s *Server) Stats() Stats {
	st := Stats{
		Round:       s.Round(),
		Submitted:   s.cfg.Gateway.Submitted(),
		Overflow:    s.cfg.Gateway.Overflow(),
		Accepted:    s.Accepted(),
		Shed:        s.Shed(),
		Invalid:     s.Invalid(),
		Completions: s.Completions(),
		TwinErrors:  s.TwinErrors(),
	}
	if tw := s.cfg.Twin; tw != nil {
		st.TwinAdvises, st.TwinCandidates, st.TwinRounds = tw.Advises(), tw.Candidates(), tw.Rounds()
	}
	return st
}

// maxItersDigits bounds the iters query value so the digit loop cannot
// overflow int: a wrapped (possibly negative) count would make
// InjectArrivalAt serve a whole stream.
const maxItersDigits = 7

// Handler exposes the gateway over HTTP:
//
//	POST /requests?group=<name>[&iters=<n>]
//	    202 Accepted  — queued for the next round's admission decision
//	    429 Too Many Requests — intake buffer full, request refused
//	    404 Not Found — unknown group name
//	    400 Bad Request — iters not a decimal number of at most
//	        maxItersDigits digits
//	GET /stats
//	    200 with the Stats JSON
//
// defaultIters sizes requests that do not pass iters. The handler only
// touches the gateway's concurrency-safe surface and the atomic
// counters, so it serves from net/http's goroutines while the loop
// runs.
func (s *Server) Handler(defaultIters int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/requests", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		name := q.Get("group")
		gi, ok := s.groupIdx[name]
		if !ok {
			http.Error(w, "unknown group "+name, http.StatusNotFound)
			return
		}
		iters := defaultIters
		if v := q.Get("iters"); v != "" {
			if len(v) > maxItersDigits {
				http.Error(w, "bad iters", http.StatusBadRequest)
				return
			}
			n := 0
			for _, c := range v {
				if c < '0' || c > '9' {
					http.Error(w, "bad iters", http.StatusBadRequest)
					return
				}
				n = n*10 + int(c-'0')
			}
			iters = n
		}
		if !s.cfg.Gateway.Submit(gi, iters) {
			http.Error(w, "intake full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
