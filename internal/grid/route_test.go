package grid

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// tap records which members a router wrote to: a shaper wrapping every
// connection the router dials, counting writes by remote address.
type tap struct {
	mu     sync.Mutex
	writes map[string]int
}

type tapConn struct {
	net.Conn
	tp *tap
}

func (c tapConn) Write(p []byte) (int, error) {
	c.tp.mu.Lock()
	c.tp.writes[c.RemoteAddr().String()]++
	c.tp.mu.Unlock()
	return c.Conn.Write(p)
}

func (tp *tap) shaper(conn net.Conn) net.Conn { return tapConn{conn, tp} }

// reached returns the indexes of the members written to since the last
// call, and forgets them.
func (tp *tap) reached(members []string) []int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var out []int
	for i, m := range members {
		if tp.writes[m] > 0 {
			out = append(out, i)
		}
	}
	tp.writes = map[string]int{}
	return out
}

// TestRouteTable drives every manager op through Router.Call on a
// 2-member grid and checks it went where proto.RouteOf says: each owner
// op to Membership().OwnerOf(name) alone, stamped with the partition
// epoch; a policy write to both members; a policy read to the first
// member that answers, also while member 0 is down. An op Call cannot
// serve — no route, or an every-member op whose replies need a merge —
// fails without writing to any member. A 1-member router stamps epoch 0,
// which a standalone manager accepts.
func TestRouteTable(t *testing.T) {
	c := fedCluster(t, 2, 2)
	members := c.ManagerAddrs()
	tp := &tap{writes: map[string]int{}}
	r, err := c.NewRouter(tp.shaper)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	epoch := r.Membership().Epoch()

	stamped := map[string]bool{}
	routeTo := func(want int, name, op string, req, resp interface{}) {
		t.Helper()
		if proto.RouteOf(op) != proto.RouteOwner {
			t.Fatalf("%s: route %d, want RouteOwner", op, proto.RouteOf(op))
		}
		if err := r.Call(op, name, req, resp); err != nil {
			t.Fatalf("%s on %s: %v", op, name, err)
		}
		if got := tp.reached(members); !slices.Equal(got, []int{want}) {
			t.Errorf("%s on %s reached members %v, want only its owner %d", op, name, got, want)
		}
		if f := reflect.ValueOf(req).Elem().FieldByName("PartitionEpoch"); f.IsValid() {
			stamped[op] = true
			if f.Uint() != epoch {
				t.Errorf("%s carried epoch %#x, want %#x", op, f.Uint(), epoch)
			}
		}
	}
	var names []string
	for want := 0; want < 2; want++ {
		name := ""
		for i := 0; name == ""; i++ {
			if owner, _ := r.Membership().OwnerOf(fmt.Sprintf("route.n%d", i)); owner == want {
				name = fmt.Sprintf("route.n%d.t0", i)
			}
		}
		names = append(names, name)
		route := func(op string, req, resp interface{}) {
			t.Helper()
			routeTo(want, name, op, req, resp)
		}
		var commitS, abortS proto.AllocResp
		for _, s := range []*proto.AllocResp{&commitS, &abortS} {
			route(proto.MAlloc, &proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 64 << 10, ReserveBytes: 1, Replication: 1}, s)
		}
		route(proto.MExtend, &proto.ExtendReq{WriteID: commitS.WriteID, Bytes: 1}, nil)
		route(proto.MHasChunks, &proto.HasReq{IDs: []core.ChunkID{{1}}}, &proto.HasResp{})
		route(proto.MCommit, &proto.CommitReq{WriteID: commitS.WriteID}, &proto.CommitResp{})
		route(proto.MAbort, &proto.AbortReq{WriteID: abortS.WriteID}, nil)
		route(proto.MGetMap, &proto.GetMapReq{Name: name}, &proto.GetMapResp{})
		route(proto.MGetMaps, &proto.GetMapsReq{Names: []string{name}}, &proto.GetMapsResp{})
		route(proto.MHistory, &proto.HistoryReq{Name: name}, &proto.HistoryResp{})
		route(proto.MDiff, &proto.DiffReq{Name: name}, &proto.DiffResp{})
		route(proto.MStatVersion, &proto.StatVersionReq{Name: name}, &proto.StatVersionResp{})
		route(proto.MStat, &proto.StatReq{Name: name}, &proto.StatResp{})
		route(proto.MReplStatus, &proto.ReplStatusReq{Name: name}, &proto.ReplStatusResp{})
	}
	// GetMaps asks each owner for its own names and merges the replies.
	maps, err := r.GetMaps(proto.GetMapsReq{Names: names})
	if err != nil || len(maps.Maps) != len(names) {
		t.Errorf("GetMaps of %v: %d maps, %v; want one per name", names, len(maps.Maps), err)
	}
	if got := tp.reached(members); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("GetMaps of one name per member reached members %v, want both", got)
	}
	for want, name := range names {
		routeTo(want, name, proto.MDelete, &proto.DeleteReq{Name: name}, nil)
	}
	if len(stamped) != 9 {
		t.Errorf("%d owner ops carry a partition epoch, want the 9 dataset-keyed requests", len(stamped))
	}

	// Every-member ops whose replies need a merge, and ops with no route.
	for _, op := range []string{
		proto.MRegister, proto.MHeartbeat, proto.MList, proto.MPolicyDryRun,
		proto.MGCReport, proto.MBenefactors, proto.MStats, "m.bogus", proto.BGet,
	} {
		if err := r.Call(op, "", &struct{}{}, &struct{}{}); err == nil {
			t.Errorf("Call served %s", op)
		}
		if got := tp.reached(members); got != nil {
			t.Errorf("refused %s still reached members %v", op, got)
		}
	}

	// A policy write goes to every member, a policy read to the first
	// that answers.
	p := core.Policy{Kind: core.PolicyReplace}
	if err := r.Call(proto.MPolicySet, "", &proto.PolicySetReq{Folder: "route", Policy: p}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tp.reached(members); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("policy write reached members %v, want both", got)
	}
	for i, m := range c.Managers {
		var resp proto.PolicyGetResp
		if err := m.Invoke(proto.MPolicyGet, proto.PolicyGetReq{Folder: "route"}, &resp); err != nil || resp.Policy != p {
			t.Errorf("member %d holds policy %+v (%v), want %+v", i, resp.Policy, err, p)
		}
	}
	getPolicy := func() core.Policy {
		t.Helper()
		var resp proto.PolicyGetResp
		if err := r.Call(proto.MPolicyGet, "", &proto.PolicyGetReq{Folder: "route"}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Policy
	}
	if got := getPolicy(); got != p {
		t.Errorf("policy read answered %+v, want %+v", got, p)
	}
	if got := tp.reached(members); !slices.Equal(got, []int{0}) {
		t.Errorf("policy read reached members %v, want member 0 alone", got)
	}
	if err := c.Managers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if got := getPolicy(); got != p {
		t.Errorf("policy read with member 0 down answered %+v, want %+v", got, p)
	}

	// A lone manager is standalone: it refuses any nonzero epoch, and a
	// 1-member router stamps none.
	solo := fedCluster(t, 1, 1)
	r1, err := solo.NewRouter(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	req := proto.AllocReq{Name: "route.n0.t0", StripeWidth: 1, ChunkSize: 64 << 10, ReserveBytes: 1, Replication: 1}
	var alloc proto.AllocResp
	if err := r1.Call(proto.MAlloc, req.Name, &req, &alloc); err != nil || req.PartitionEpoch != 0 {
		t.Fatalf("1-member alloc: epoch %#x, %v; want 0 and accepted", req.PartitionEpoch, err)
	}
	req.PartitionEpoch = epoch
	if err := solo.Manager.Invoke(proto.MAlloc, req, nil); !errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("standalone manager answered a stamped epoch with %v, want ErrEpochMismatch", err)
	}
}
