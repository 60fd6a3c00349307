package httpd

// POST /v1/query: the streaming relational query endpoint. Admission
// treats it as a read (it serves from pinned epochs and mutates
// nothing), the propagated request deadline rides the context into
// every operator pull, and the cumulative counters behind the query
// section of /v1/stats are kept here — the backend stays stateless.

import (
	"errors"
	"net/http"

	"trustmap/internal/query"
	"trustmap/wire"
)

func (srv *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	var q wire.Query
	if !srv.readJSON(w, r, &q) {
		return
	}
	res, err := st.Query(r.Context(), q)
	if err != nil {
		if errors.Is(err, query.ErrBadQuery) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Anything else failed at run time, on a valid query: not the
		// caller's fault (query.ErrBadQuery's contract).
		srv.storeError(w, err, http.StatusInternalServerError)
		return
	}
	srv.queries.Add(1)
	srv.queryRowsScanned.Add(res.Stats.RowsScanned)
	srv.queryRowsEmitted.Add(res.Stats.RowsEmitted)
	srv.queryPredsReordered.Add(uint64(res.Stats.PredicatesReordered))
	if res.Stats.EarlyTerminated {
		srv.queryEarlyTerms.Add(1)
	}
	resp := wire.QueryResponse{
		Epoch:   res.Epoch,
		LSN:     st.LSN(),
		Columns: res.Columns,
		Rows:    res.Rows,
		Stats:   res.Stats,
	}
	// Cap the response at the batch limit like every other batched
	// surface — visibly: Truncated is set and Stats.RowsEmitted still
	// counts the full result, so nothing silently disappears.
	if len(resp.Rows) > srv.maxBatch {
		resp.Rows = resp.Rows[:srv.maxBatch]
		resp.Truncated = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// QueryTotals snapshots the cumulative /v1/query counters: the query
// section of /v1/stats.
func (srv *Server) QueryTotals() wire.QueryTotals {
	return wire.QueryTotals{
		Queries:             srv.queries.Load(),
		RowsScanned:         srv.queryRowsScanned.Load(),
		RowsEmitted:         srv.queryRowsEmitted.Load(),
		PredicatesReordered: srv.queryPredsReordered.Load(),
		EarlyTerminations:   srv.queryEarlyTerms.Load(),
	}
}
