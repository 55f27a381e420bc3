// lifecycle: automated, time-sensitive checkpoint data management
// (paper §IV.D). Checkpoint images are transient: a "replace" policy makes
// each new image obsolete its predecessors, and a "purge" policy expires
// images by age — the storage system acts as a self-cleaning cache instead
// of filling up with dead snapshots.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"stdchk"
	"stdchk/internal/proto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := stdchk.StartCluster(stdchk.ClusterOptions{Benefactors: 3})
	if err != nil {
		return err
	}
	defer cluster.Close()
	client, err := cluster.Connect(stdchk.Options{StripeWidth: 2, Replication: 1})
	if err != nil {
		return err
	}
	defer client.Close()

	writeCkpt := func(name string) error {
		img := make([]byte, 512<<10)
		rand.New(rand.NewSource(int64(len(name)))).Read(img)
		w, err := client.Create(name)
		if err != nil {
			return err
		}
		if _, err := w.Write(img); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		return w.Wait()
	}

	// Normal application scenario: only the newest image matters.
	if err := client.SetPolicy("sim", stdchk.Policy{Kind: stdchk.PolicyReplace}); err != nil {
		return err
	}
	for ts := 0; ts < 5; ts++ {
		if err := writeCkpt(fmt.Sprintf("sim.n1.t%d", ts)); err != nil {
			return err
		}
	}
	info, err := client.Stat("sim.n1")
	if err != nil {
		return err
	}
	fmt.Printf("replace policy: wrote 5 checkpoints, %d version kept (%s)\n",
		len(info.Versions), info.Versions[len(info.Versions)-1].Name)

	// Debugging scenario: keep everything.
	if err := client.SetPolicy("debug", stdchk.Policy{Kind: stdchk.PolicyNone}); err != nil {
		return err
	}
	for ts := 0; ts < 3; ts++ {
		if err := writeCkpt(fmt.Sprintf("debug.n1.t%d", ts)); err != nil {
			return err
		}
	}
	info, err = client.Stat("debug.n1")
	if err != nil {
		return err
	}
	fmt.Printf("no-intervention policy: %d versions retained for debugging\n", len(info.Versions))

	// Scratch scenario: expire by age.
	if err := client.SetPolicy("scratch", stdchk.Policy{
		Kind:       stdchk.PolicyPurge,
		PurgeAfter: 1500 * time.Millisecond,
	}); err != nil {
		return err
	}
	if err := writeCkpt("scratch.n1.t0"); err != nil {
		return err
	}
	fmt.Println("purge policy: wrote a scratch checkpoint, waiting for expiry...")
	deadline := time.Now().Add(15 * time.Second)
	for {
		list, err := client.List("scratch")
		if err != nil {
			return err
		}
		if len(list) == 0 {
			fmt.Println("scratch checkpoint expired and was pruned automatically")
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("purge policy never fired")
		}
		time.Sleep(200 * time.Millisecond)
	}

	stats, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("versions pruned by policy engine: %d\n", stats.Counters[proto.CtrVersionsPruned].Value)
	return nil
}
