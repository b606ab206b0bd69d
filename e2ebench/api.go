package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The wire types below restate the documented v2 JSON API. The generator
// deliberately does not import the service's own types or its Go client:
// the traffic a commit is measured with must not change when those do.

type eventJSON struct {
	Arrive bool   `json:"arrive"`
	Type   string `json:"type,omitempty"`
	VM     *int   `json:"vm,omitempty"`
	Health string `json:"health,omitempty"`
	PM     *int   `json:"pm,omitempty"`
}

type eventsReq struct {
	AdvanceMinutes int         `json:"advance_minutes,omitempty"`
	Events         []eventJSON `json:"events,omitempty"`
}

type sessionReq struct {
	Mapping json.RawMessage `json:"mapping"`
	ID      string          `json:"id,omitempty"`
	Seed    int64           `json:"seed"`
}

type planReq struct {
	MNL    int    `json:"mnl"`
	Solver string `json:"solver"`
}

type sessionJSON struct {
	ID     string  `json:"id"`
	PMs    int     `json:"pms"`
	VMs    int     `json:"vms"`
	Minute int     `json:"minute"`
	FR     float64 `json:"fr"`
	Health struct {
		Up       int `json:"up"`
		Draining int `json:"draining"`
		Down     int `json:"down"`
	} `json:"health"`
	PendingEvacuations int `json:"pending_evacuations"`
	Stats              struct {
		Arrivals      int `json:"arrivals"`
		Rejected      int `json:"rejected"`
		Exits         int `json:"exits"`
		Crashes       int `json:"crashes"`
		Drains        int `json:"drains"`
		Recoveries    int `json:"recoveries"`
		Evacuated     int `json:"evacuated"`
		EvacCancelled int `json:"evac_cancelled"`
		EvacLost      int `json:"evac_lost"`
	} `json:"stats"`
}

type migrationJSON struct {
	VM     int  `json:"vm"`
	FromPM int  `json:"from_pm"`
	ToPM   int  `json:"to_pm"`
	Swap   bool `json:"swap,omitempty"`
	Forced bool `json:"forced,omitempty"`
}

type repairJSON struct {
	Valid         int     `json:"valid"`
	Repaired      int     `json:"repaired"`
	Dropped       int     `json:"dropped"`
	Evacuated     int     `json:"evacuated,omitempty"`
	EvacFailed    int     `json:"evac_failed,omitempty"`
	LiveInitialFR float64 `json:"live_initial_fr"`
	LiveFinalFR   float64 `json:"live_final_fr"`
	BudgetDropped int     `json:"budget_dropped,omitempty"`
}

type planJSON struct {
	Solver    string          `json:"solver"`
	InitialFR float64         `json:"initial_fr"`
	FinalFR   float64         `json:"final_fr"`
	Steps     int             `json:"steps"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Plan      []migrationJSON `json:"plan"`
	Repair    *repairJSON     `json:"repair,omitempty"`
}

type jobJSON struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	TimedOut bool      `json:"timed_out,omitempty"`
	Result   *planJSON `json:"result,omitempty"`
	Error    string    `json:"error,omitempty"`
}

type statsJSON struct {
	Accepted uint64 `json:"accepted"`
	Shed     uint64 `json:"shed"`
}

type fleetJSON struct {
	Stats struct {
		Snapshots uint64 `json:"snapshots"`
	} `json:"stats"`
}

// newHTTPClient returns the generator's client: at most two connections
// to any one host (the benchmark box has two cores) and no compression.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// call issues one request and decodes a 2xx JSON answer into out (when
// non-nil). It returns the status code (0 on a transport error), the raw
// body and how long the exchange took.
func call(hc *http.Client, method, url string, body, out any) (int, []byte, time.Duration, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte: // pre-encoded, so large bodies are not re-encoded on the clock
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return 0, nil, took, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, raw, took, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, took, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, raw, took, nil
}

// promMetrics scrapes a Prometheus text page into name -> value.
func (b *bench) promMetrics(url string) (map[string]float64, error) {
	code, raw, _, err := call(b.hc, http.MethodGet, url+"/metrics", nil, nil)
	b.count("check", code, err == nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
