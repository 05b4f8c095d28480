// Quickstart: a 20-node group on the in-memory transport. One node
// publishes an update; the push phase floods it to the online population and
// an initially-offline node catches up by pulling when it "returns" — its
// Watch stream reports the pulled update as it lands.
package main

import (
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
	hub := pushpull.NewHub()

	const n = 20
	nodes := make([]*pushpull.Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("replica-%02d", i)
	}
	for i := 0; i < n; i++ {
		// The last node knows the group, but the group has not heard from
		// it yet: no push can target it, so whatever it learns arrives by
		// its own pulls.
		peers := addrs[:n-1]
		if i == n-1 {
			peers = addrs
		}
		node, err := pushpull.Open(
			pushpull.WithHub(hub, addrs[i]),
			pushpull.WithPullInterval(50*time.Millisecond),
			pushpull.WithSeed(int64(i)+1),
			pushpull.WithPeers(peers...),
		)
		if err != nil {
			return err
		}
		nodes[i] = node
		defer node.Close(ctx)
	}

	// Take the last node offline before the update happens, but leave a
	// watch on it: the stream will report the eventual pull-reconciled
	// update.
	hub.SetOnline(addrs[n-1], false)
	events, err := nodes[n-1].Watch(ctx, "")
	if err != nil {
		return err
	}
	fmt.Printf("%s is offline\n", addrs[n-1])

	update, err := nodes[0].Publish(ctx, "motd", []byte("gossip works"))
	if err != nil {
		return err
	}
	fmt.Printf("%s published %s\n", addrs[0], update.ID())

	if err := waitFor(2*time.Second, func() bool {
		for _, node := range nodes[:n-1] {
			if _, ok := node.Get("motd"); !ok {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("online replicas: %w", err)
	}
	fmt.Println("all 19 online replicas received the update via push")

	if _, ok := nodes[n-1].Get("motd"); ok {
		return fmt.Errorf("offline replica should not have the update yet")
	}

	// The offline node returns and reconciles via the pull phase.
	hub.SetOnline(addrs[n-1], true)
	if err := nodes[n-1].Pull(ctx); err != nil {
		return err
	}
	select {
	case ev := <-events:
		fmt.Printf("%s came online and observed %s of %s=%q via %s\n",
			addrs[n-1], ev.Kind, ev.Update.Key, ev.Update.Value, ev.Source)
		if ev.Source != pushpull.SourcePull {
			return fmt.Errorf("expected a pull-sourced event, got %s", ev.Source)
		}
	case <-time.After(2 * time.Second):
		return fmt.Errorf("returning replica saw no event")
	}
	rev, ok := nodes[n-1].Get("motd")
	if !ok {
		return fmt.Errorf("returning replica still misses the update")
	}
	fmt.Printf("%s now reads motd=%q (version %s)\n", addrs[n-1], rev.Value, rev.Version)
	return nil
}

func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("condition not met within %v", d)
}
