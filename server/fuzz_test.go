package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzJSONBodies sends arbitrary bodies of at most 4 KiB to the three JSON
// endpoints, POST /v1/sessions, /v1/programs and /v1/run, through the handler,
// on the session of a tenant with a program and its data. No body panics the
// handler or gets a 5xx; one that does not decode into the endpoint's request
// gets 400 with a JSON error (413 is for a body past maxJSONBody, which none
// of these reaches); and afterwards the session still answers GET /healthz and
// GET /v1/programs with 200.
func FuzzJSONBodies(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `null`, `[]`, `"x"`, `{"tenant":"alpha"}`, `{"tenant":""}`, `{"tenant":"../x"}`,
		`{"name":"p2","source":"cube A(t: year) measure v\nB := A + 1\n"}`,
		`{"name":"prog","source":"` + "cube SRC(t: month) measure v\\nOUT := SRC * 2\\n" + `"}`,
		`{"name":"q","source":"B := "}`, `{"changed":["SRC"]}`, `{"changed":["NOPE"]}`,
		`{"incremental":true}`, `{"as_of":"2001-02-03T04:05:06Z"}`, `{"as_of":"yesterday"}`,
		`{"async":true}`, `{"changed":"SRC"}`, `{"tenant":1}`, `{} trailing`, `{"a":`, "\x00\xff",
	} {
		f.Add([]byte(seed))
	}

	srv := New(Config{})
	h := srv.Handler()
	serve := func(method, path, sid string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if sid != "" {
			req.Header.Set(SessionHeader, sid)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	var sess sessionInfo
	rec := serve(http.MethodPost, "/v1/sessions", "", []byte(`{"tenant":"fuzz"}`))
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); rec.Code != http.StatusCreated || err != nil {
		f.Fatalf("session create: status %d (%s)", rec.Code, rec.Body.String())
	}
	sid := sess.Session
	b, _ := json.Marshal(programRequest{Name: "prog", Source: testProgram})
	if rec := serve(http.MethodPost, "/v1/programs", sid, b); rec.Code != http.StatusCreated {
		f.Fatalf("register: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := serve(http.MethodPut, "/v1/cubes/SRC", sid, []byte("t,v\n2000-01,1\n2000-02,2\n")); rec.Code != http.StatusOK {
		f.Fatalf("put SRC: status %d (%s)", rec.Code, rec.Body.String())
	}

	endpoints := []struct {
		path string
		req  func() any // what the endpoint decodes its body into
	}{
		{"/v1/sessions", func() any { return &sessionCreateRequest{} }},
		{"/v1/programs", func() any { return &programRequest{} }},
		{"/v1/run", func() any { return &runRequest{} }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 4<<10 {
			body = body[:4<<10]
		}
		for _, ep := range endpoints {
			rec := serve(http.MethodPost, ep.path, sid, body)
			// /v1/run reads no body when there is none.
			malformed := json.NewDecoder(bytes.NewReader(body)).Decode(ep.req()) != nil && (len(body) > 0 || ep.path != "/v1/run")
			var e apiError
			switch {
			case rec.Code >= 500:
				t.Fatalf("POST %s %q: status %d (%s)", ep.path, body, rec.Code, rec.Body.String())
			case malformed && (rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == ""):
				t.Fatalf("POST %s %q: malformed body got status %d (%s), want 400 with a JSON error", ep.path, body, rec.Code, rec.Body.String())
			}
			if ep.path == "/v1/sessions" && rec.Code == http.StatusCreated {
				var created sessionInfo
				if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
					t.Fatal(err)
				}
				serve(http.MethodDelete, "/v1/sessions/"+created.Session, "", nil)
			}
		}
		for _, path := range []string{"/healthz", "/v1/programs"} {
			if rec := serve(http.MethodGet, path, sid, nil); rec.Code != http.StatusOK {
				t.Fatalf("GET %s after %q: status %d (%s)", path, body, rec.Code, rec.Body.String())
			}
		}
	})
}
