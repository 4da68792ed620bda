package protocol

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"ldphh/internal/core"
	"ldphh/internal/proto"
)

// TestMetricsTextLint enforces Prometheus naming over the full exposition:
// every series ending in `_total` must be TYPE counter and every counter
// must end in `_total` (the lint that caught ldphh_identify_seconds_total
// declared as a gauge), every series carries a HELP line, names are unique
// and namespaced under ldphh_. The render includes the stream series, the
// interactive round series and a taken checkpoint so conditional metrics
// are linted too.
func TestMetricsTextLint(t *testing.T) {
	m := newMetrics("streamhg", func() int { return 42 })
	m.noteCheckpoint(3, time.Now().UnixNano(), 128, 7)
	stream := &proto.StreamStats{Window: 2, Windows: 8, Warmup: true, Evictions: 5}
	round := &proto.RoundState{Round: 1, Rounds: 4, PrefixBits: 8, GroupReports: 9,
		Candidates: [][]byte{{0x10}, {0x20}}}
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	m.writeProm(bw, 42, errors.New("listener dead"), stream, round)
	bw.Flush()
	text := sb.String()

	types := map[string]string{}
	helps := map[string]bool{}
	var order []string
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "#" && fields[1] == "HELP" {
			helps[fields[2]] = true
		}
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			name, typ := fields[2], fields[3]
			if _, dup := types[name]; dup {
				t.Errorf("metric %s declared twice", name)
			}
			types[name] = typ
			order = append(order, name)
		}
	}
	if len(types) < 20 {
		t.Fatalf("exposition parsed only %d TYPE lines — render or parser broke:\n%s", len(types), text)
	}
	sort.Strings(order)
	for _, name := range order {
		typ := types[name]
		if !strings.HasPrefix(name, "ldphh_") {
			t.Errorf("metric %s escapes the ldphh_ namespace", name)
		}
		if !helps[name] {
			t.Errorf("metric %s has no HELP line", name)
		}
		if strings.HasSuffix(name, "_total") != (typ == "counter") {
			t.Errorf("metric %s: TYPE %s violates the _total<->counter naming rule", name, typ)
		}
	}
	if typ := types["ldphh_identify_seconds_total"]; typ != "counter" {
		t.Errorf("ldphh_identify_seconds_total is TYPE %q, want counter", typ)
	}
	for _, name := range []string{"ldphh_round", "ldphh_round_candidates", "ldphh_round_group_size"} {
		if typ := types[name]; typ != "gauge" {
			t.Errorf("%s is TYPE %q, want gauge", name, typ)
		}
	}
	if typ := types["ldphh_rounds_advanced_total"]; typ != "counter" {
		t.Errorf("ldphh_rounds_advanced_total is TYPE %q, want counter", typ)
	}
}

// TestHealthzKeysAndPprof pins the /healthz JSON key set — operator probes
// and dashboards parse these names, so adding is fine but renaming or
// dropping is a breaking change — and verifies the pprof handlers are
// reachable on the same sidecar.
func TestHealthzKeysAndPprof(t *testing.T) {
	agg, err := core.NewPESWire(treeParams(64))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0", WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + srv.MetricsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	_, body := get("/healthz")
	var parsed map[string]any
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{
		"status", "protocol", "uptime_seconds", "absorbed", "resident",
		"checkpoint_seq", "checkpoint_taken", "checkpoint_age_seconds",
		"checkpoint_lag_reports", "last_checkpoint_error", "listener_error",
	} {
		if _, ok := parsed[key]; !ok {
			t.Errorf("/healthz dropped stable key %q: %s", key, body)
		}
	}

	// The profiling endpoints ride the metrics sidecar; /cmdline and the
	// index are cheap to hit (unlike /profile, which samples for seconds).
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code, body := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", path, code, body)
		}
	}
}
