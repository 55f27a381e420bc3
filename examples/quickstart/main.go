// Quickstart: bring up an in-process stdchk pool, write a checkpoint
// image, read it back, and inspect the system — the smallest end-to-end
// tour of the public API.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"stdchk"
	"stdchk/internal/proto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A desktop grid in one process: a metadata manager plus four
	// storage-donor nodes (benefactors).
	cluster, err := stdchk.StartCluster(stdchk.ClusterOptions{Benefactors: 4})
	if err != nil {
		return err
	}
	defer cluster.Close()

	client, err := cluster.Connect(stdchk.Options{
		StripeWidth: 4,                    // stripe writes over all donors
		Replication: 2,                    // keep two replicas of each chunk
		Protocol:    stdchk.SlidingWindow, // fastest write path (paper §IV.B)
	})
	if err != nil {
		return err
	}
	defer client.Close()

	// A fake 8 MB checkpoint image. Names follow the paper's A.Ni.Tj
	// convention: application "sim", node "n1", timestep 0.
	image := make([]byte, 8<<20)
	rand.New(rand.NewSource(42)).Read(image)

	w, err := client.Create("sim.n1.t0")
	if err != nil {
		return err
	}
	if _, err := w.Write(image); err != nil {
		return err
	}
	// Close is the application-visible end of the checkpoint: the app
	// returns to computing while the pipeline drains in the background.
	if err := w.Close(); err != nil {
		return err
	}
	// Wait blocks until the image is safely stored and its chunk-map
	// committed (session semantics).
	if err := w.Wait(); err != nil {
		return err
	}
	m := w.Metrics()
	fmt.Printf("checkpoint stored: %d bytes, OAB %.1f MB/s, ASB %.1f MB/s\n",
		m.Bytes, m.OABMBps(), m.ASBMBps())

	// Restart path: read the checkpoint back.
	r, err := client.Open("sim.n1.t0")
	if err != nil {
		return err
	}
	restored, err := r.ReadAll()
	r.Close()
	if err != nil {
		return err
	}
	if !bytes.Equal(restored, image) {
		return fmt.Errorf("restored image differs from the original")
	}
	fmt.Printf("restored %d bytes, bit-identical\n", len(restored))

	// Inspect the pool.
	donors, err := client.Benefactors()
	if err != nil {
		return err
	}
	fmt.Printf("pool: %d benefactors\n", len(donors))
	stats, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("catalog: %d dataset(s), %d version(s), %d unique chunk(s)\n",
		stats.Counters[proto.CtrDatasets].Value, stats.Counters[proto.CtrVersions].Value,
		stats.Counters[proto.CtrUniqueChunks].Value)
	return nil
}
