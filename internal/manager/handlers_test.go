package manager

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
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
