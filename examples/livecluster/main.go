// Livecluster runs five nodes over real TCP sockets, publishes updates,
// "crashes" one node (closing it after saving a snapshot), keeps updating
// the survivors, and then restarts the crashed node from its snapshot — it
// reconciles the missed updates by pulling, exactly the paper's offline-peer
// story but with durable local state.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	pushpull "github.com/p2pgossip/update"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const n = 5
	nodes := make([]*pushpull.Node, n)
	addrs := make([]string, n)

	for i := 0; i < n; i++ {
		node, err := pushpull.Open(
			pushpull.WithTCP("127.0.0.1:0"),
			pushpull.WithPullInterval(50*time.Millisecond),
			pushpull.WithSeed(int64(i)+1),
		)
		if err != nil {
			return err
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	for _, node := range nodes {
		node.AddPeers(addrs...)
	}
	fmt.Printf("five replicas on TCP: %v\n", addrs)

	if _, err := nodes[0].Publish(ctx, "config/rate", []byte("100")); err != nil {
		return err
	}
	if err := waitAll(nodes, "config/rate", "100"); err != nil {
		return err
	}
	fmt.Println("update 1 reached all replicas")

	// Crash node 4: snapshot, then close (drains the puller, frees the
	// socket).
	var snapshot bytes.Buffer
	if err := nodes[4].WriteSnapshot(&snapshot); err != nil {
		return err
	}
	if err := nodes[4].Close(ctx); err != nil {
		return err
	}
	fmt.Println("replica 4 crashed (state snapshotted)")

	// The survivors keep making progress.
	if _, err := nodes[1].Publish(ctx, "config/rate", []byte("250")); err != nil {
		return err
	}
	if _, err := nodes[2].Publish(ctx, "config/burst", []byte("16")); err != nil {
		return err
	}
	if err := waitAll(nodes[:4], "config/burst", "16"); err != nil {
		return err
	}
	fmt.Println("updates 2+3 reached the four survivors")

	// Restart node 4 on a fresh port and restore its snapshot. It opens
	// peerless so the pre-crash state can be verified, then rejoins and
	// reconciles by pulling.
	restarted, err := pushpull.Open(
		pushpull.WithTCP("127.0.0.1:0"),
		pushpull.WithPullInterval(50*time.Millisecond),
		pushpull.WithSeed(99),
	)
	if err != nil {
		return err
	}
	defer restarted.Close(ctx)
	if err := restarted.RestoreSnapshot(&snapshot); err != nil {
		return err
	}
	if rev, ok := restarted.Get("config/rate"); !ok || string(rev.Value) != "100" {
		return fmt.Errorf("snapshot restore lost state")
	}
	fmt.Printf("replica 4 restarted on %s from its snapshot\n", restarted.Addr())
	restarted.AddPeers(addrs[:4]...)
	if err := restarted.Pull(ctx); err != nil {
		return err
	}

	if err := waitAll([]*pushpull.Node{restarted}, "config/rate", "250"); err != nil {
		return err
	}
	if err := waitAll([]*pushpull.Node{restarted}, "config/burst", "16"); err != nil {
		return err
	}
	fmt.Println("restarted replica pulled the updates it missed — cluster consistent")

	for _, node := range nodes[:4] {
		if err := node.Close(ctx); err != nil {
			return err
		}
	}
	return nil
}

func waitAll(nodes []*pushpull.Node, key, want string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, node := range nodes {
			rev, ok := node.Get(key)
			if !ok || string(rev.Value) != want {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timeout waiting for %s=%s on %d replicas", key, want, len(nodes))
}
