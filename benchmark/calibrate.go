package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// calibDoc is a fixed document shaped like the daemons' traffic: a few
// hundred small records with strings and numbers.
type calibRec struct {
	File    string  `json:"file"`
	Func    string  `json:"func"`
	Line    int     `json:"line"`
	Message string  `json:"message"`
	Score   float64 `json:"score"`
}

func calibDoc() []calibRec {
	out := make([]calibRec, 400)
	for i := range out {
		out[i] = calibRec{
			File: fmt.Sprintf("drivers/net/dev%04d.c", i), Func: fmt.Sprintf("dev%04d_probe", i),
			Line: 10 + i*7%300, Message: "pointer may be NULL and is dereferenced without a check", Score: float64(i) / 7,
		}
	}
	return out
}

// refSpeed is the calibrator rate, in round trips per second, that time
// and rate metrics are reported at: the median over the 80 runs of
// REPEATABILITY.md on the 2-core development box, so that reported
// values read like measured ones. Its value only fixes the scale; what
// matters is that it never changes between the commits compared.
const refSpeed = 500.0

// speedTrips is the round trips per client in one speed sample: about
// 30 ms on the development box. Samples twice as long, or twice as
// often, narrowed the run-to-run spread by a tenth; they are not worth
// the parked time.
const speedTrips = 6

// setupTrips is the same for the samples taken around the phases of a
// set-up, which are few — half a dozen to a dozen — and so longer.
const setupTrips = 12

// calibrator measures the machine's current speed on work that does not
// depend on the repository's code but is of the same kind as the
// daemons' traffic: clients POST a fixed JSON document over loopback
// HTTP to a server in this process, which decodes it, indexes it in a
// map and sends it back re-encoded. The round trip costs user-space
// compute, allocation, syscalls, loopback networking and cross-thread
// wake-ups in roughly the proportions a scan request does, so the rate
// drops when any of them gets slower on a shared box.
type calibrator struct {
	srv     *httptest.Server
	body    []byte
	clients [2]*client // kept, so a sample never pays for a TCP handshake
}

func newCalibrator() *calibrator {
	c := &calibrator{body: mustJSON(calibDoc())}
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc []calibRec
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		idx := make(map[string]int, len(doc))
		for i, rec := range doc {
			idx[rec.File+":"+rec.Func] = i
		}
		doc[0].Line = len(idx)
		_ = json.NewEncoder(w).Encode(doc) // a failed write fails the client's decode
	}))
	for k := range c.clients {
		c.clients[k] = newClient()
	}
	c.rate(2) // open both connections
	return c
}

func (c *calibrator) close() {
	for _, hc := range c.clients {
		hc.close()
	}
	c.srv.Close()
}

// rate makes both clients do trips round trips each, at once, and
// returns round trips per second. A fixed count, not a fixed time: the
// sample is not quantized by whole round trips.
func (c *calibrator) rate(trips int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for _, hc := range c.clients {
		wg.Add(1)
		go func(hc *client) {
			defer wg.Done()
			for i := 0; i < trips; i++ {
				rp, err := hc.post(c.srv.URL, c.body)
				var doc []calibRec
				if err != nil || json.Unmarshal(rp.body, &doc) != nil || len(doc) == 0 {
					panic(fmt.Sprintf("calibration round trip failed: %v", err)) // in-process server, fixed document
				}
			}
		}(hc)
	}
	wg.Wait()
	return float64(trips*len(c.clients)) / time.Since(start).Seconds()
}
