package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"mdw/internal/obs"
	"mdw/internal/sparql"
)

// Every SPARQL answer (/api/query, /api/semmatch) leaves through
// serveResult: the result encodes its own members, and this file frames
// them (DESIGN.md, "HTTP response encoding").

// streamFlushAt is how many encoded bytes collect before they are handed
// to the connection: large enough that a 2 MB Listing 1 reply costs ~60
// writes, small enough that the reply starts leaving before it is done.
const streamFlushAt = 32 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, streamFlushAt+(4<<10))
	return &b
}}

// writeResult writes res to w in the QueryResponse shape — its members
// as the reply a results-cache hit kept, in one write, or streamed — and
// returns the bytes w accepted and its first write error. statsJSON, when
// not nil, is the already-marshalled stats member and plan its rendering.
func writeResult(w io.Writer, res *sparql.Result, statsJSON []byte, plan string) (n int64, err error) {
	// send hands b to w. The first write error sticks: later sends are
	// dropped and the encoder stops, so a handler whose client went away
	// finishes quickly instead of encoding into the void.
	send := func(b []byte) bool {
		if err == nil && len(b) > 0 {
			var k int
			k, err = w.Write(b)
			n += int64(k)
		}
		return err == nil
	}
	pooled := bufPool.Get().(*[]byte)
	buf := append((*pooled)[:0], '{')
	if reply := res.EncodedJSON(); reply != nil {
		send(buf)
		buf = buf[:0]
		send(reply)
	} else {
		buf, _ = res.AppendJSON(buf, func(b []byte) ([]byte, bool) {
			if len(b) < streamFlushAt {
				return b, true
			}
			return b[:0], send(b)
		})
	}
	if statsJSON != nil {
		buf = append(buf, `,"stats":`...)
		buf = append(buf, statsJSON...)
		if plan != "" {
			buf = append(buf, `,"analyzedPlan":`...)
			buf = sparql.AppendJSONString(buf, plan)
		}
	}
	send(append(buf, '}', '\n'))
	*pooled = buf[:0]
	bufPool.Put(pooled)
	return n, err
}

// serveResult answers a SPARQL request with res, plus the operator
// statistics when the request asked for analyze=1 (stats is nil
// otherwise). The encode runs under an "http encode" span labelled with
// the row and byte counts and wire=cached (the kept reply) or encoded, so
// a request's trace shows what formatting the answer cost beside what
// computing it cost.
func serveResult(rw http.ResponseWriter, r *http.Request, res *sparql.Result, stats *sparql.ExecStats) {
	var statsJSON []byte
	var plan string
	if stats != nil {
		var err error
		if statsJSON, err = json.Marshal(stats); err != nil {
			writeError(rw, http.StatusInternalServerError, err)
			return
		}
		plan = stats.String()
	}
	sp, _ := obs.ChildCtx(r.Context(), "http encode")
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	wire := "encoded"
	if res.EncodedJSON() != nil {
		wire = "cached"
	}
	n, err := writeResult(rw, res, statsJSON, plan)
	sp.SetLabel("rows", strconv.Itoa(res.Count())).SetLabel("bytes", strconv.FormatInt(n, 10)).SetLabel("wire", wire)
	if err != nil {
		sp.SetLabel("error", err.Error())
	}
	sp.Finish()
}
