package ids

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	e := newEngine(t, 4)
	s := NewServer(e)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if !c.Healthy() {
		t.Fatal("healthz failed")
	}
	resp, err := c.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if resp.Rows[0][1] != `"ada"` {
		t.Fatalf("row0 = %v", resp.Rows[0])
	}
	if resp.Makespan < 0 || resp.Plan == "" {
		t.Fatalf("metadata missing: %+v", resp)
	}
}

func TestHTTPQueryError(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Query(`SELECT nonsense`); err == nil {
		t.Fatal("bad query accepted")
	}
	if !strings.Contains(strings.ToLower(
		func() string { _, err := c.Query(`SELECT nonsense`); return err.Error() }()), "sparql") {
		t.Fatal("error message lost")
	}
}

// TestHTTPQueryPanicIs500 pins the status split on /query: a malformed
// query is the client's fault (400), a rank panic inside the engine is
// the server's (500).
func TestHTTPQueryPanicIs500(t *testing.T) {
	s, ts := testServer(t)
	if err := s.Engine.Reg.Register("boom", func([]expr.Value) (expr.Value, error) {
		panic("udf exploded")
	}); err != nil {
		t.Fatal(err)
	}
	post := func(q string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Query: q})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out["error"]
	}
	if code, _ := post(`SELECT nonsense`); code != http.StatusBadRequest {
		t.Fatalf("parse error status = %d, want 400", code)
	}
	code, msg := post(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(boom(?a)) }`)
	if code != http.StatusInternalServerError {
		t.Fatalf("rank panic status = %d, want 500 (%s)", code, msg)
	}
	if !strings.Contains(msg, "udf exploded") {
		t.Fatalf("panic message lost: %q", msg)
	}
}

func TestHTTPModuleLoadAndReload(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if err := c.LoadModule("m", `def yes(x) { return true }`); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.yes(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if err := c.ReloadModule("m", `def yes(x) { return x > 50 }`); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.yes(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 { // edsger, 72
		t.Fatalf("rows after reload = %d", len(resp.Rows))
	}
	if err := c.LoadModule("bad", `not a module`); err == nil {
		t.Fatal("bad module accepted")
	}
}

func TestHTTPProfileAndStats(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if err := c.LoadModule("m", `def pass(x) { return true }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.pass(?a)) }`); err != nil {
		t.Fatal(err)
	}
	prof, err := c.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if prof["m.pass"].Execs != 5 {
		t.Fatalf("profile = %+v", prof)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triples == 0 || stats.Ranks != 4 || stats.Queries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	found := false
	for _, n := range stats.UDFs {
		if n == "m.pass" {
			found = true
		}
	}
	if !found {
		t.Fatalf("UDF list missing module function: %v", stats.UDFs)
	}
}

func TestHTTPSnapshotRoundTrip(t *testing.T) {
	s, ts := testServer(t)
	c := NewClient(ts.URL)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := kg.LoadSnapshot(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != s.Engine.Graph.Len() {
		t.Fatalf("restored %d triples, want %d", g.Len(), s.Engine.Graph.Len())
	}
	// The restored graph is immediately queryable.
	e2, err := NewEngine(g, mpp.Topology{Nodes: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/name> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Num != 5 {
		t.Fatalf("count after restore = %v", res.Rows[0][0])
	}
}

func TestProfilerAccessor(t *testing.T) {
	e := newEngine(t, 2)
	if e.Profiler(0) == nil || e.Profiler(1) == nil {
		t.Fatal("nil rank profiler")
	}
	if e.Profiler(0) == e.Profiler(1) {
		t.Fatal("ranks share a profiler")
	}
}

func TestServerServeOnFreePort(t *testing.T) {
	e := newEngine(t, 2)
	s := NewServer(e)
	addrCh := make(chan string, 1)
	go func() {
		_ = s.Serve("127.0.0.1:0", func(addr string) { addrCh <- addr })
	}()
	addr := <-addrCh
	c := NewClient("http://" + addr)
	deadline := time.Now().Add(5 * time.Second)
	for !c.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLauncherLifecycle(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	data := `<http://x/s1> <http://x/p> "v1" .
<http://x/s2> <http://x/p> "v2" .
`
	if err := os.WriteFile(nt, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	inst, err := Launcher{}.Launch(LaunchConfig{
		NTriplesPath: nt,
		Topo:         mpp.Topology{Nodes: 2, RanksPerNode: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Teardown()

	c := inst.Client()
	if !c.Healthy() {
		t.Fatal("instance not healthy")
	}
	resp, err := c.Query(`SELECT ?s ?v WHERE { ?s <http://x/p> ?v . } ORDER BY ?v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if err := inst.ImportCode("mod", `def id(x) { return x }`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	inst.DumpLogs(&buf)
	logs := buf.String()
	if !strings.Contains(logs, "agent started") || !strings.Contains(logs, "imported module mod") {
		t.Fatalf("logs = %q", logs)
	}
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Idempotent teardown.
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	if c.Healthy() {
		t.Fatal("endpoint alive after teardown")
	}
}

func TestLauncherErrors(t *testing.T) {
	if _, err := (Launcher{}).Launch(LaunchConfig{NTriplesPath: "/does/not/exist", Topo: mpp.Topology{Nodes: 1, RanksPerNode: 1}}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := (Launcher{}).Launch(LaunchConfig{Topo: mpp.Topology{}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
