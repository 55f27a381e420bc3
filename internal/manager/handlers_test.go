package manager

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// startManager spins a real manager for handler-level tests.
func startManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func mcall(t *testing.T, addr, op string, req interface{}, resp interface{}) error {
	t.Helper()
	conn, err := wire.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Call(op, req, nil, resp)
	return err
}

func TestHandleRegisterValidation(t *testing.T) {
	m := startManager(t, Config{})
	if err := mcall(t, m.Addr(), proto.MRegister, proto.RegisterReq{}, nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	var resp proto.RegisterResp
	err := mcall(t, m.Addr(), proto.MRegister,
		proto.RegisterReq{ID: "n1", Addr: "1.2.3.4:9", Capacity: 100, Free: 100}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.HeartbeatInterval <= 0 {
		t.Fatalf("heartbeat interval = %v", resp.HeartbeatInterval)
	}
}

func TestHandleAllocRequiresNameAndNodes(t *testing.T) {
	m := startManager(t, Config{})
	var resp proto.AllocResp
	if err := mcall(t, m.Addr(), proto.MAlloc, proto.AllocReq{}, &resp); err == nil {
		t.Fatal("alloc without name accepted")
	}
	err := mcall(t, m.Addr(), proto.MAlloc, proto.AllocReq{Name: "a.n1.t0"}, &resp)
	if !errors.Is(err, core.ErrNoBenefactors) {
		t.Fatalf("alloc on empty pool: %v", err)
	}
}

func TestHandleCommitUnknownSession(t *testing.T) {
	m := startManager(t, Config{})
	err := mcall(t, m.Addr(), proto.MCommit, proto.CommitReq{WriteID: 42}, nil)
	if !errors.Is(err, core.ErrAlreadyCommitted) {
		t.Fatalf("commit of unknown session: %v", err)
	}
	if err := mcall(t, m.Addr(), proto.MAbort, proto.AbortReq{WriteID: 42}, nil); err == nil {
		t.Fatal("abort of unknown session accepted")
	}
	if err := mcall(t, m.Addr(), proto.MExtend, proto.ExtendReq{WriteID: 42, Bytes: 10}, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("extend of unknown session: %v", err)
	}
}

func TestHandleUnknownOp(t *testing.T) {
	m := startManager(t, Config{})
	if err := mcall(t, m.Addr(), "m.bogus", nil, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestOpTableCoversEveryManagerOp reads the manager op constants out of
// proto's source (every string constant named M*, valued "m.*") and holds
// the op table to them: an op without an entry would be refused as
// unknown, and an entry without a constant is unreachable. It also pins
// which ops the table gates and times, so moving an op in or out of
// admission control — or of the latency histograms operators read — is a
// visible change to this test, not a side effect of editing a handler.
// Every op must also have a proto.Route, or no router can send it.
func TestOpTableCoversEveryManagerOp(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../proto/proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i >= len(vs.Values) || !strings.HasPrefix(name.Name, "M") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				if op, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(op, "m.") {
					declared[op] = true
				}
			}
		}
	}
	if len(declared) < 22 {
		t.Fatalf("found only %d manager ops in proto.go; the scan is broken", len(declared))
	}

	m := startManager(t, Config{})
	var gatedOps, timedOps []string
	for op := range declared {
		if proto.RouteOf(op) == 0 {
			t.Errorf("proto declares %s but gives it no route", op)
		}
		e := m.ops[op]
		if e == nil {
			t.Errorf("proto declares %s but the manager's op table has no entry for it", op)
			continue
		}
		if e.flags&gated != 0 {
			gatedOps = append(gatedOps, op)
		}
		if e.flags&timed != 0 {
			timedOps = append(timedOps, op)
		}
	}
	for op := range m.ops {
		if !declared[op] {
			t.Errorf("op table serves %s, which proto does not declare", op)
		}
	}
	sort.Strings(gatedOps)
	sort.Strings(timedOps)
	if want := []string{proto.MAlloc, proto.MCommit, proto.MExtend}; !reflect.DeepEqual(gatedOps, want) {
		t.Errorf("admission-gated ops = %v, want exactly %v", gatedOps, want)
	}
	if want := []string{proto.MAlloc, proto.MCommit}; !reflect.DeepEqual(timedOps, want) {
		t.Errorf("timed ops = %v, want exactly %v", timedOps, want)
	}
}

func TestHandleGCReportRespectsRecovery(t *testing.T) {
	m := startManager(t, Config{Recover: true})
	ghost := core.HashChunk([]byte("ghost"))
	var resp proto.GCReportResp
	if err := mcall(t, m.Addr(), proto.MGCReport,
		proto.GCReportReq{ID: "n1", IDs: []core.ChunkID{ghost}}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Deletable) != 0 {
		t.Fatal("recovering manager declared chunks deletable")
	}
	m.FinishRecovery()
	if err := mcall(t, m.Addr(), proto.MGCReport,
		proto.GCReportReq{ID: "n1", IDs: []core.ChunkID{ghost}}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Deletable) != 1 {
		t.Fatal("unreferenced chunk not deletable after recovery")
	}
}

func TestHandlePolicyRoundTripAndValidation(t *testing.T) {
	m := startManager(t, Config{})
	bad := proto.PolicySetReq{Folder: "f", Policy: core.Policy{Kind: core.PolicyPurge}}
	if err := mcall(t, m.Addr(), proto.MPolicySet, bad, nil); err == nil {
		t.Fatal("invalid policy accepted")
	}
	good := proto.PolicySetReq{Folder: "f", Policy: core.Policy{Kind: core.PolicyReplace, KeepVersions: 2}}
	if err := mcall(t, m.Addr(), proto.MPolicySet, good, nil); err != nil {
		t.Fatal(err)
	}
	var resp proto.PolicyGetResp
	if err := mcall(t, m.Addr(), proto.MPolicyGet, proto.PolicyGetReq{Folder: "f"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy.Kind != core.PolicyReplace || resp.Policy.KeepVersions != 2 {
		t.Fatalf("policy = %+v", resp.Policy)
	}
}

func TestFullWriteCycleOverWire(t *testing.T) {
	m := startManager(t, Config{})
	// Register a fake benefactor with plenty of space.
	if err := mcall(t, m.Addr(), proto.MRegister,
		proto.RegisterReq{ID: "n1", Addr: "127.0.0.1:1", Capacity: 1 << 30, Free: 1 << 30}, nil); err != nil {
		t.Fatal(err)
	}
	var alloc proto.AllocResp
	if err := mcall(t, m.Addr(), proto.MAlloc, proto.AllocReq{
		Name: "w.n1.t0", StripeWidth: 1, ChunkSize: 100, ReserveBytes: 1000,
	}, &alloc); err != nil {
		t.Fatal(err)
	}
	if len(alloc.Stripe) != 1 || alloc.Stripe[0].ID != "n1" {
		t.Fatalf("stripe = %+v", alloc.Stripe)
	}
	if err := mcall(t, m.Addr(), proto.MExtend, proto.ExtendReq{WriteID: alloc.WriteID, Bytes: 500}, nil); err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(500, 3, 100)
	var commit proto.CommitResp
	if err := mcall(t, m.Addr(), proto.MCommit, proto.CommitReq{
		WriteID: alloc.WriteID, FileSize: total, Chunks: chunks,
	}, &commit); err != nil {
		t.Fatal(err)
	}
	if commit.Version == 0 || commit.NewBytes != total {
		t.Fatalf("commit = %+v", commit)
	}
	// Map retrievable; reservation released.
	var gm proto.GetMapResp
	if err := mcall(t, m.Addr(), proto.MGetMap, proto.GetMapReq{Name: "w.n1"}, &gm); err != nil {
		t.Fatal(err)
	}
	if gm.Map.FileSize != total {
		t.Fatalf("map = %+v", gm.Map)
	}
	var bl proto.BenefactorsResp
	if err := mcall(t, m.Addr(), proto.MBenefactors, nil, &bl); err != nil {
		t.Fatal(err)
	}
	if bl.Benefactors[0].Reserved != 0 {
		t.Fatalf("reservation leaked: %+v", bl.Benefactors[0])
	}
	// Double commit rejected.
	if err := mcall(t, m.Addr(), proto.MCommit, proto.CommitReq{
		WriteID: alloc.WriteID, FileSize: total, Chunks: chunks,
	}, nil); !errors.Is(err, core.ErrAlreadyCommitted) {
		t.Fatalf("double commit: %v", err)
	}
}

// TestHandleGetMapHave: a GetMap whose Have is the version the name
// resolves to answers the file name and that version with a nil map, and
// builds nothing: it allocates the same for an 8-chunk and a 512-chunk
// version. Any other Have — stale after a commit, or naming another
// timestep — gets the full map.
func TestHandleGetMapHave(t *testing.T) {
	m := startManager(t, Config{})
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("have%d:1", i)
		if err := mcall(t, m.Addr(), proto.MRegister,
			proto.RegisterReq{ID: core.NodeID(id), Addr: id, Capacity: 1 << 30, Free: 1 << 30}, nil); err != nil {
			t.Fatal(err)
		}
	}
	getMap := func(req proto.GetMapReq) proto.GetMapResp {
		t.Helper()
		var resp proto.GetMapResp
		if err := mcall(t, m.Addr(), proto.MGetMap, req, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if _, err := DriveCheckpoint(m, "have.n1.t0", 1, 0, 8, 4<<10, false); err != nil {
		t.Fatal(err)
	}
	v1 := getMap(proto.GetMapReq{Name: "have.n1"})
	if v1.Map == nil || v1.Version != v1.Map.Version || v1.Name != "have.n1.t0" {
		t.Fatalf("cold fetch = %+v, want the full map of have.n1.t0", v1)
	}

	for _, name := range []string{"have.n1", "have.n1.t0"} {
		got := getMap(proto.GetMapReq{Name: name, Have: v1.Version})
		if got.Map != nil || got.Version != v1.Version || got.Name != "have.n1.t0" {
			t.Fatalf("GetMap %s with Have %d = %+v, want name and version, no map", name, v1.Version, got)
		}
	}
	if _, err := DriveCheckpoint(m, "hbig.n1.t0", 2, 0, 512, 4<<10, false); err != nil {
		t.Fatal(err)
	}
	big := getMap(proto.GetMapReq{Name: "hbig.n1"})
	if big.Map == nil || len(big.Map.Chunks) != 512 {
		t.Fatalf("cold fetch of hbig.n1 = %+v, want a 512-chunk map", big)
	}
	haveAllocs := func(name string, have core.VersionID) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := m.handleGetMap(proto.GetMapReq{Name: name, Have: have}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Under the race detector sync.Pool (namespace parsing's regexp uses
	// one) drops items at random, so counts may differ by one; building a
	// 512-chunk map would cost hundreds.
	slack := 0.0
	if raceBuild() {
		slack = 1
	}
	if small, large := haveAllocs("have.n1", v1.Version), haveAllocs("hbig.n1", big.Version); math.Abs(large-small) > slack {
		t.Fatalf("a Have hit allocates %v times for 8 chunks and %v for 512: it built the map", small, large)
	}

	if _, err := DriveCheckpoint(m, "have.n1.t1", 1, 1, 8, 4<<10, false); err != nil {
		t.Fatal(err)
	}
	v2 := getMap(proto.GetMapReq{Name: "have.n1", Have: v1.Version})
	if v2.Map == nil || v2.Version == v1.Version || v2.Version != v2.Map.Version || v2.Name != "have.n1.t1" {
		t.Fatalf("latest after a commit with a stale Have = %+v, want the full map of have.n1.t1", v2)
	}
	if old := getMap(proto.GetMapReq{Name: "have.n1.t0", Have: v2.Version}); old.Map == nil || old.Version != v1.Version {
		t.Fatalf("have.n1.t0 with Have %d = %+v, want the full map of version %d", v2.Version, old, v1.Version)
	}
}
