package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"gqldb/internal/store"
)

// client is the closed-loop load generator: one keep-alive connection,
// one request in flight, the next sent only after the previous response
// has been read to its last byte.
type client struct {
	base string
	http *http.Client
	tr   *http.Transport
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}, tr: tr}
}

// open establishes the keep-alive connection with an untimed probe.
func (c *client) open() error {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return fmt.Errorf("opening the connection: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// close drops the client's idle connection.
func (c *client) close() { c.tr.CloseIdleConnections() }

// queryEnvelope is the /v2/query JSON body.
type queryEnvelope struct {
	Query string `json:"query"`
	Take  *int   `json:"take,omitempty"`
}

// encodeBody pre-encodes a request body, so encoding stays out of the
// timed round trip.
func encodeBody(r request) (path, ctype string, body []byte, err error) {
	if r.write {
		return "/v2/mutate", "text/plain", []byte(r.src), nil
	}
	env := queryEnvelope{Query: r.src}
	if r.take >= 0 {
		t := r.take
		env.Take = &t
	}
	body, err = json.Marshal(env)
	return "/v2/query", "application/json", body, err
}

// response is what the client keeps of one round trip.
type response struct {
	err     error
	latency time.Duration
	bytes   int
	rows    int
	digest  uint64
	// wallMS is the server's own wall time from the summary line (reads)
	// or the mutate response (writes).
	wallMS   float64
	cacheHit bool
	write    bool
	// applied are a write's application counts.
	applied store.ApplyResult
}

// do sends one request and reads the whole response; the latency covers
// exactly the round trip to the last byte.
func (c *client) do(r request) response {
	path, ctype, body, err := encodeBody(r)
	if err != nil {
		return response{err: err}
	}
	return c.send(path, ctype, body, r.write)
}

// send is do with a pre-encoded body.
func (c *client) send(path, ctype string, body []byte, write bool) response {
	c.buf.Reset()
	start := time.Now()
	resp, err := c.http.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	out := response{latency: lat, bytes: c.buf.Len()}
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		return out
	}
	if write {
		out.applied, out.wallMS, err = decodeApplied(c.buf.Bytes())
		if err != nil {
			out.err = fmt.Errorf("decoding mutate response: %w", err)
		}
		return out
	}
	out.err = parseStream(c.buf.Bytes(), &out)
	return out
}

var (
	rowPrefix     = []byte(`{"row":`)
	summaryPrefix = []byte(`{"summary":`)
)

// parseStream walks an NDJSON response: row lines are counted and hashed
// byte for byte, the summary line must come last and agree on the count.
func parseStream(b []byte, out *response) error {
	h := fnv.New64a()
	sawSummary := false
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return errors.New("unterminated NDJSON line")
		}
		line := b[:i+1]
		b = b[i+1:]
		switch {
		case sawSummary:
			return errors.New("line after the summary")
		case bytes.HasPrefix(line, rowPrefix):
			out.rows++
			h.Write(line)
		case bytes.HasPrefix(line, summaryPrefix):
			var s struct {
				Summary struct {
					Rows     int     `json:"rows"`
					WallMS   float64 `json:"wall_ms"`
					CacheHit bool    `json:"cache_hit"`
				} `json:"summary"`
			}
			if err := json.Unmarshal(line, &s); err != nil {
				return fmt.Errorf("decoding summary: %w", err)
			}
			if s.Summary.Rows != out.rows {
				return fmt.Errorf("summary counts %d rows, stream carried %d", s.Summary.Rows, out.rows)
			}
			out.wallMS = s.Summary.WallMS
			out.cacheHit = s.Summary.CacheHit
			sawSummary = true
		default:
			return fmt.Errorf("unexpected line %.200s", line)
		}
	}
	if !sawSummary {
		return errors.New("stream ended without a summary line")
	}
	out.digest = h.Sum64()
	return nil
}

// rowLine mirrors the v2 row line, so the oracle can render the bytes a
// correct server sends for a given result graph.
type rowLine struct {
	Row struct {
		N     int    `json:"n"`
		Graph string `json:"graph"`
	} `json:"row"`
}

// rowDigest hashes the row lines a correct server sends for rows.
func rowDigest(rows []string) (uint64, error) {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	enc.SetEscapeHTML(false)
	for i, g := range rows {
		var l rowLine
		l.Row.N = i
		l.Row.Graph = g
		if err := enc.Encode(&l); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}
