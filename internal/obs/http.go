package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"gospaces/internal/metrics"
)

// Handler serves the live ops surface:
//
//	/metrics          Prometheus text: counters, gauges, histograms
//	/healthz          JSON liveness: per-shard role, replication lag, WAL position
//	/tracez           recent slow spans, worst first
//	/debug/pprof/...  the standard Go profiling endpoints
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, o)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		h := o.HealthReport()
		if fl := o.Fl(); fl != nil {
			h.FlightDepth = fl.Depth()
			h.FlightDropped = fl.Dropped()
			h.FlightClk = fl.Clk()
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		var dump FlightDump
		if fl := o.Fl(); fl != nil {
			dump = fl.Dump()
		}
		_ = enc.Encode(dump)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeTracez(w, o.T())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "gospaces ops surface: /metrics /healthz /tracez /debug/flight /debug/pprof/")
	})
	return mux
}

// Serve binds the ops surface on addr and serves it in the background.
// The returned closer shuts the listener down.
func Serve(addr string, o *Obs) (io.Closer, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Handler(o)}
	go srv.Serve(l) //nolint:errcheck // closed listener error on shutdown
	return l, l.Addr().String(), nil
}

// sanitize maps a framework metric name ("shard0:serve") to a Prometheus
// metric name component ("shard0_serve").
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteMetrics renders every counter, gauge and histogram in Prometheus
// text exposition format. Histograms become native Prometheus histograms:
// cumulative le buckets in seconds (the power-of-two nanosecond bucket
// edges), plus _sum and _count.
func WriteMetrics(w io.Writer, o *Obs) {
	if o == nil {
		return
	}
	if o.Counters != nil {
		snap := o.Counters.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			name := "gospaces_" + sanitize(k) + "_total"
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, snap[k])
		}
	}
	reg := o.Registry
	if reg == nil {
		return
	}
	gauges := reg.Gauges()
	gkeys := make([]string, 0, len(gauges))
	for k := range gauges {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for _, k := range gkeys {
		name := "gospaces_" + sanitize(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, gauges[k])
	}
	for _, hname := range reg.HistogramNames() {
		s := reg.Histogram(hname).Snapshot()
		if s.Count == 0 {
			continue
		}
		name := "gospaces_" + sanitize(hname) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		top := s.NumBuckets() - 1
		for top > 0 && s.Counts[top] == 0 {
			top--
		}
		for i := 0; i <= top; i++ {
			cum += s.Counts[i]
			le := float64(s.BucketUpper(i)) / float64(time.Second)
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(le), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(w, "%s_sum %s\n", name, trimFloat(float64(s.Sum)/float64(time.Second)))
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", f), "0"), ".")
}

// tracezLimit bounds the /tracez listing.
const tracezLimit = 64

// writeTracez lists the slowest retained spans, worst first.
func writeTracez(w io.Writer, t *Tracer) {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Duration > spans[j].Duration })
	if len(spans) > tracezLimit {
		spans = spans[:tracezLimit]
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("tracez — %d slowest of %d retained spans (%d evicted)", len(spans), len(t.Spans()), t.Dropped()),
		Columns: []string{"Duration", "Stage", "Node", "Trace", "Span", "Parent", "Start"},
	}
	for _, s := range spans {
		tbl.AddRow(
			s.Duration.String(), s.Name, s.Node,
			fmt.Sprintf("%016x", s.Trace), fmt.Sprintf("%016x", s.ID), fmt.Sprintf("%016x", s.Parent),
			s.Start.Format(time.RFC3339Nano),
		)
	}
	io.WriteString(w, tbl.String()) //nolint:errcheck
}
