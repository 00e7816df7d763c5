package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// row is one outcome line of a POST /v1/sweep response. Result stays raw
// so it can be compared byte for byte with the expected encoding.
type row struct {
	Seq    int             `json:"seq"`
	Point  core.Point      `json:"point"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	// Bytes is the length of the line on the wire, newline included.
	Bytes int `json:"-"`
}

// summary is the final line of a sweep response.
type summary struct {
	Done  bool `json:"done"`
	Total int  `json:"total"`
}

// sweepBody is a parsed sweep response: the optional grammar header is
// skipped, every row is kept, and the summary must be the last line.
type sweepBody struct {
	Rows    []row
	Summary *summary
}

// parseSweep splits an NDJSON sweep response into rows and its summary.
// A line is a row when it carries a "point", the summary when it carries
// "done", and the grammar header when it carries "space_hash".
func parseSweep(body []byte) (sweepBody, error) {
	var out sweepBody
	for n := 1; len(body) > 0; n++ {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if out.Summary != nil {
			return out, fmt.Errorf("ndjson line %d: data after the summary", n)
		}
		var probe struct {
			Point     json.RawMessage `json:"point"`
			Done      *bool           `json:"done"`
			SpaceHash *string         `json:"space_hash"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return out, fmt.Errorf("ndjson line %d: %w", n, err)
		}
		switch {
		case probe.Point != nil:
			var r row
			if err := json.Unmarshal(line, &r); err != nil {
				return out, fmt.Errorf("ndjson line %d: %w", n, err)
			}
			r.Bytes = len(line)
			out.Rows = append(out.Rows, r)
		case probe.Done != nil:
			var s summary
			if err := json.Unmarshal(line, &s); err != nil {
				return out, fmt.Errorf("ndjson line %d: %w", n, err)
			}
			out.Summary = &s
		case probe.SpaceHash != nil:
		default:
			return out, fmt.Errorf("ndjson line %d: neither row, header nor summary: %s", n, bytes.TrimSpace(line))
		}
	}
	if out.Summary == nil {
		return out, fmt.Errorf("ndjson: no summary line after %d rows", len(out.Rows))
	}
	return out, nil
}

// compactJSON returns raw with insignificant whitespace removed, so two
// encodings of one value compare equal byte for byte.
func compactJSON(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
