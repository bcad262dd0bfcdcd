package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// conn is one HTTP connection to the server under test: a client whose
// transport keeps at most one connection open.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends body as JSON and returns the status, the raw response body
// and the round trip up to the last byte read.
func (c *conn) post(path string, body any) (int, []byte, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	rt := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, data, rt, err
}

func (c *conn) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// record is one answered (or refused) query.
type record struct {
	shape  string
	req    service.Request
	sent   time.Time
	status int
	rt     time.Duration
	bytes  int
	resp   *service.Response
	// ackLo is the number of append batches acknowledged before the
	// request was sent; ackHi the number sent before its reply arrived.
	// The rows the query saw lie between the two prefixes.
	ackLo, ackHi int
}

func (c *conn) query(shape string, req service.Request, log *appendLog) record {
	rec := record{shape: shape, req: req, sent: time.Now()}
	if log != nil {
		rec.ackLo = log.acked()
	}
	status, data, rt, err := c.post("/query", req)
	if log != nil {
		rec.ackHi = log.sent()
	}
	rec.status, rec.rt, rec.bytes = status, rt, len(data)
	if err != nil {
		rec.status = 0
		return rec
	}
	if status == http.StatusOK {
		var resp service.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			rec.status = 0
			return rec
		}
		rec.resp = &resp
	}
	return rec
}

// appendLog is the ordered record of /append batches into one
// collection: batch b holds generated rows [first+b*batchRows,
// first+(b+1)*batchRows). Batches are sent one at a time, so a query
// sent after n batches completed and answered before m were sent saw
// every row of the acknowledged batches below n and nothing at or
// beyond batch m.
type appendLog struct {
	col   string
	first int
	nSent atomic.Int64
	nDone atomic.Int64
	mu    sync.Mutex
	bs    []batch
}

type batch struct {
	due    time.Time
	ok     bool
	ids    []uint64 // server-assigned ids, in row order
	latMS  float64  // from due time to reply
	lateMS float64  // how far the send ran behind its due time
}

func (l *appendLog) acked() int { return int(l.nDone.Load()) }
func (l *appendLog) sent() int  { return int(l.nSent.Load()) }

func (l *appendLog) batches() []batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]batch(nil), l.bs...)
}

// tail returns the last n batches.
func (l *appendLog) tail(n int) []batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]batch(nil), l.bs[max(0, len(l.bs)-n):]...)
}

// send posts the next batch; due is when it was scheduled. A failed
// batch is not retried: its rows may or may not have committed.
func (l *appendLog) send(c *conn, g *generator, due time.Time) {
	b := l.sent()
	req := service.AppendRequest{Collection: l.col, Patches: make([]service.PatchSpec, batchRows)}
	for i := range req.Patches {
		req.Patches[i] = g.row(l.first + b*batchRows + i).spec()
	}
	late := time.Since(due)
	l.nSent.Add(1)
	status, data, _, err := c.post("/append", req)
	bt := batch{due: due, latMS: ms(time.Since(due)), lateMS: ms(late)}
	var resp service.AppendResponse
	if err == nil && status == http.StatusOK && json.Unmarshal(data, &resp) == nil && len(resp.IDs) == batchRows {
		bt.ok, bt.ids = true, resp.IDs
	}
	l.mu.Lock()
	l.bs = append(l.bs, bt)
	l.mu.Unlock()
	l.nDone.Add(1)
}

// openLoop sends batches at rate per second until stop, each timed from
// its due time, so a stall charges every batch queued behind it.
func (l *appendLog) openLoop(c *conn, g *generator, rate int, stop time.Time) {
	start := time.Now()
	for b := 0; ; b++ {
		due := start.Add(time.Duration(b) * time.Second / time.Duration(rate))
		if !due.Before(stop) {
			return
		}
		time.Sleep(time.Until(due))
		l.send(c, g, due)
	}
}

// closedLoop sends n batches back to back.
func (l *appendLog) closedLoop(c *conn, g *generator, n int) {
	for i := 0; i < n; i++ {
		l.send(c, g, time.Now())
	}
}
