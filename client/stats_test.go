package client

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"testing"

	"sstore/internal/pe"
	"sstore/internal/wire"
)

// statsServer is a minimal wire-speaking endpoint that answers every
// request with the engine counters st, sent the way the server sends
// them: as is, through the wire codec.
func statsServer(t *testing.T, st pe.Stats) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := c.Write(wire.AppendHello(nil)); err != nil {
					return
				}
				br := bufio.NewReader(c)
				if err := wire.ReadHello(br); err != nil {
					return
				}
				for {
					payload, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						return
					}
					frame := wire.AppendResponse(nil, &wire.Response{
						ID: req.ID, Op: wire.OpStats, Status: wire.StatusOK, Stats: st,
					})
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// numbered sets every engine counter to a distinct nonzero value,
// from first.
func numbered(first uint64) pe.Stats {
	var st pe.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(first + uint64(i))
	}
	return st
}

// TestStatsEveryCounterRoundTrips: a fully populated counter struct
// reaches Client.Stats intact, every field included.
func TestStatsEveryCounterRoundTrips(t *testing.T) {
	want := numbered(1)
	c, err := Dial(statsServer(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestClusterStatsCombinesNodes: the cluster snapshot sums every count
// across nodes.
func TestClusterStatsCombinesNodes(t *testing.T) {
	a, b := numbered(1), numbered(100)
	cc, err := DialClusterSpec(fmt.Sprintf("0@%s=0;1@%s=1", statsServer(t, a), statsServer(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	got, err := cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	wv, av, bv := reflect.ValueOf(&want).Elem(), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < wv.NumField(); i++ {
		wv.Field(i).SetUint(av.Field(i).Uint() + bv.Field(i).Uint())
	}
	if got != want {
		t.Errorf("cluster stats = %+v, want %+v", got, want)
	}
}
