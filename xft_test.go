package xft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
)

func TestPublicAPIQuickstart(t *testing.T) {
	cluster, err := NewCluster(Options{T: 1, NewApp: func() Application { return kv.NewStore() }})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if cluster.N() != 3 || cluster.T() != 1 {
		t.Fatalf("n=%d t=%d", cluster.N(), cluster.T())
	}
	client := cluster.NewClient()
	rep, err := client.Invoke(kv.PutOp("greeting", []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 1 || rep[0] != kv.StatusOK {
		t.Fatalf("put reply %v", rep)
	}
	rep, err = client.Invoke(kv.GetOp("greeting"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) < 1 || rep[0] != kv.StatusOK || !bytes.Equal(rep[1:], []byte("hello")) {
		t.Fatalf("get reply %v", rep)
	}
}

func TestPublicAPIMultipleClients(t *testing.T) {
	cluster, err := NewCluster(Options{T: 1, NewApp: func() Application { return kv.NewStore() }})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := cluster.NewClient()
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("c%d-k%d", c, i)
				if _, err := client.Invoke(kv.PutOp(key, []byte("v"))); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPublicAPIInvokeTimed(t *testing.T) {
	cluster, err := NewCluster(Options{T: 1, NewApp: func() Application { return kv.NewStore() }})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	client := cluster.NewClient()
	_, lat, err := client.InvokeTimed(kv.PutOp("x", []byte("1")))
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency %v", lat)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := NewCluster(Options{T: 0, NewApp: func() Application { return kv.NewStore() }}); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := NewCluster(Options{T: 1}); err == nil {
		t.Fatal("missing NewApp accepted")
	}
}

func TestPublicAPIT2(t *testing.T) {
	cluster, err := NewCluster(Options{T: 2, NewApp: func() Application { return kv.NewStore() }})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	client := cluster.NewClient()
	if _, err := client.Invoke(kv.PutOp("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIInvokeAfterStop: an Invoke on a stopped cluster returns
// an error at once instead of blocking on a commit that cannot come.
func TestPublicAPIInvokeAfterStop(t *testing.T) {
	cluster, err := NewCluster(Options{T: 1, NewApp: func() Application { return kv.NewStore() }})
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient()
	if _, err := client.Invoke(kv.PutOp("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	cluster.Stop()
	errc := make(chan error, 1)
	go func() {
		_, err := client.Invoke(kv.GetOp("k"))
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Invoke after Stop succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invoke after Stop still blocked after 5 s")
	}
}
