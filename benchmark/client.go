package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"time"
)

// client is one load-generator connection: its transport keeps a single
// keep-alive connection per host, so two clients are two connections.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed HTTP exchange. total runs from just before the
// request is written until the last body byte is read; ttfb until the
// first response byte.
type reply struct {
	status int
	body   []byte
	start  time.Time
	ttfb   time.Duration
	total  time.Duration
}

func (c *client) do(method, url string, body []byte) (reply, error) {
	var rp reply
	var first time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return rp, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rp.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return rp, fmt.Errorf("%s %s: %w", method, url, err)
	}
	rp.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.total = time.Since(rp.start)
	if err != nil {
		return rp, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	rp.status = resp.StatusCode
	rp.ttfb = first.Sub(rp.start)
	if first.IsZero() {
		rp.ttfb = rp.total
	}
	return rp, nil
}

func (c *client) post(url string, body []byte) (reply, error) {
	return c.do(http.MethodPost, url, body)
}

// openLoop is the fixed-rate schedule of the reader: request j is due at
// t0 + j·interval whatever happened to the requests before it, and its
// latency counts from that due time, so a stall shows up in every
// request it delayed.
type openLoop struct {
	t0       time.Time
	interval time.Duration
}

func (o openLoop) due(j int) time.Time { return o.t0.Add(time.Duration(j) * o.interval) }

// sinceDue converts one exchange, due at due and sent at sent, into the
// values reported: how late it was sent, and first byte and latency
// counted from the due time.
func sinceDue(due, sent time.Time, ttfb, total time.Duration) (late, fromDueTTFB, fromDue time.Duration) {
	late = sent.Sub(due)
	return late, late + ttfb, late + total
}
