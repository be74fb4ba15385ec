package central

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
)

// Handler returns a read-only HTTP admin surface for operators and
// monitoring (the binary protocol in internal/transport remains the data
// plane):
//
//	GET /healthz                     -> 200 "ok"
//	GET /stats                       -> store counters (JSON)
//	GET /locations                   -> locations with their periods (JSON)
//	GET /query/volume?loc=1&period=2 -> one period's volume estimate
//	GET /query/point?loc=1&periods=1,2,3
//	GET /query/od?loc=1&loc2=2&period=1  -> one period's OD volume
//	GET /query/p2p?loc=1&loc2=2&periods=1,2,3
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//ptmlint:allow errdrop -- the response is committed; a failed write means the client hung up
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		cs := s.EstCacheStats()
		resp := map[string]any{
			"locations":    st.Locations,
			"records":      st.Records,
			"payload_bits": st.Bits,
			"hot_records":  st.HotRecords,
			"cold_records": st.ColdRecords,
			"segments":     st.Segments,
			"s":            s.S(),
			"estcache": map[string]any{
				"hits":     cs.Hits,
				"misses":   cs.Misses,
				"entries":  cs.Entries,
				"capacity": cs.Capacity,
			},
		}
		if bc, ok := s.st.(store.CacheStatser); ok {
			b := bc.CacheStats()
			resp["blockcache"] = map[string]any{
				"hits":           b.Hits,
				"misses":         b.Misses,
				"evictions":      b.Evictions,
				"pinned_bytes":   b.PinnedBytes,
				"cached_bytes":   b.CachedBytes,
				"capacity_bytes": b.CapacityBytes,
				"spans":          b.Spans,
			}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /locations", func(w http.ResponseWriter, r *http.Request) {
		type locInfo struct {
			Location uint64            `json:"location"`
			Periods  []record.PeriodID `json:"periods"`
		}
		var out []locInfo
		for _, loc := range s.Locations() {
			out = append(out, locInfo{Location: uint64(loc), Periods: s.Periods(loc)})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /query/volume", func(w http.ResponseWriter, r *http.Request) {
		loc, err := queryLoc(r, "loc")
		if err != nil {
			httpError(w, err)
			return
		}
		period, err := strconv.ParseUint(r.URL.Query().Get("period"), 10, 32)
		if err != nil {
			httpError(w, badRequestf("bad period: %v", err))
			return
		}
		v, err := s.Volume(loc, record.PeriodID(period))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]float64{"estimate": v})
	})
	mux.HandleFunc("GET /query/point", func(w http.ResponseWriter, r *http.Request) {
		loc, err := queryLoc(r, "loc")
		if err != nil {
			httpError(w, err)
			return
		}
		periods, err := queryPeriods(r)
		if err != nil {
			httpError(w, err)
			return
		}
		res, err := s.PointPersistent(loc, periods)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"estimate": res.Estimate, "m": res.M, "t": res.T})
	})
	mux.HandleFunc("GET /query/od", func(w http.ResponseWriter, r *http.Request) {
		loc, err := queryLoc(r, "loc")
		if err != nil {
			httpError(w, err)
			return
		}
		loc2, err := queryLoc(r, "loc2")
		if err != nil {
			httpError(w, err)
			return
		}
		period, err := strconv.ParseUint(r.URL.Query().Get("period"), 10, 32)
		if err != nil {
			httpError(w, badRequestf("bad period: %v", err))
			return
		}
		v, err := s.ODVolume(loc, loc2, record.PeriodID(period))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]float64{"estimate": v})
	})
	mux.HandleFunc("GET /query/p2p", func(w http.ResponseWriter, r *http.Request) {
		loc, err := queryLoc(r, "loc")
		if err != nil {
			httpError(w, err)
			return
		}
		loc2, err := queryLoc(r, "loc2")
		if err != nil {
			httpError(w, err)
			return
		}
		periods, err := queryPeriods(r)
		if err != nil {
			httpError(w, err)
			return
		}
		res, err := s.PointToPointPersistent(loc, loc2, periods)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{
			"estimate": res.Estimate, "m": res.M, "m_prime": res.MPrime, "t": res.T,
		})
	})
	return mux
}

type badRequestError struct{ msg string }

// Error implements error.
func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

func queryLoc(r *http.Request, key string) (vhash.LocationID, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, &badRequestError{msg: "missing " + key}
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, &badRequestError{msg: "bad " + key}
	}
	return vhash.LocationID(n), nil
}

func queryPeriods(r *http.Request) ([]record.PeriodID, error) {
	raw := r.URL.Query().Get("periods")
	if raw == "" {
		return nil, &badRequestError{msg: "missing periods"}
	}
	parts := strings.Split(raw, ",")
	out := make([]record.PeriodID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, &badRequestError{msg: "bad periods"}
		}
		out = append(out, record.PeriodID(n))
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	//ptmlint:allow errdrop -- headers are sent; mid-body failures cannot be reported to the client
	_ = json.NewEncoder(w).Encode(v)
}

// httpError maps store errors to status codes.
func httpError(w http.ResponseWriter, err error) {
	var br *badRequestError
	switch {
	case errors.As(err, &br):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoPeriods):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}
