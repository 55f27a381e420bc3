package wire

import (
	"errors"
	"sync"
	"testing"
)

// TestOpTableRecordsEveryDispatch: concurrent dispatches of one op are
// each counted once, with one latency sample each, and a handler's
// failure — or its request's failed decode — counts as an error.
func TestOpTableRecordsEveryDispatch(t *testing.T) {
	type echoReq struct{ N int }
	tbl := NewOpTable("test")
	On(tbl, "t.echo", func(req echoReq, body []byte) (Resp, error) {
		if req.N < 0 {
			return Resp{}, errors.New("negative")
		}
		return Resp{Meta: req, Body: body}, nil
	})
	const workers, calls = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := i
				if i%10 == 0 {
					n = -1
				}
				meta, _ := MarshalMeta(echoReq{N: n})
				resp, err := tbl.Serve(&Req{Op: "t.echo", Meta: meta, Body: []byte{byte(g)}})
				if (err != nil) != (n < 0) || err == nil && resp.Body[0] != byte(g) {
					t.Errorf("echo %d: resp %+v, err %v", n, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := tbl.Serve(&Req{Op: "t.echo", Meta: []byte("{")}); err == nil {
		t.Fatal("a request that does not decode was served")
	}
	st := tbl.Stats()["t.echo"]
	want := int64(workers*calls + 1)
	if st.Count != want || st.Latency.Count != want || st.Errors != workers*calls/10+1 {
		t.Fatalf("recorded %+v; want %d calls, %d latency samples, %d errors", st, want, want, workers*calls/10+1)
	}
}

func TestOpTableRefusesDuplicateDeclaration(t *testing.T) {
	tbl := NewOpTable("test")
	On(tbl, "t.op", func(struct{}, []byte) (Resp, error) { return Resp{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("a second declaration of t.op was accepted")
		}
	}()
	On(tbl, "t.op", func(struct{}, []byte) (Resp, error) { return Resp{}, nil })
}
