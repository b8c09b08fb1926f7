// Serving: the knowledge base as a network service.
//
// It discovers the memo's smoking/cancer model, mounts it behind the
// JSON-over-HTTP serving layer (pka.NewServer), and then acts as its own
// client: a single conditional query, a same-evidence batch (validated
// once, served through one engine sweep), and the schema endpoint. This is
// the programmatic twin of:
//
//	pka discover -in survey.csv -out kb.json
//	pka serve -kb kb.json -addr :8080
//	curl -d '{"kind":"conditional",...}' localhost:8080/v1/query
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"pka"
	"pka/internal/paperdata"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serving: ")

	// Acquire the knowledge base and compile its engine once; the handler
	// reuses it for every request, from any number of concurrent clients.
	model, err := pka.Discover(paperdata.Records(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: pka.NewServer(model)}
	go srv.Serve(l)
	defer srv.Close()
	base := "http://" + l.Addr().String()
	fmt.Printf("serving the model on %s\n\n", base)

	// One query over the wire: the memo's headline conditional.
	res := postJSON(base+"/v1/query", pka.Query{
		Kind:   pka.QueryConditional,
		Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
		Given:  []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}},
	})
	var one pka.QueryResult
	decode(res, &one)
	fmt.Printf("P(CANCER=Yes | SMOKING=Smoker) = %.3f\n\n", one.Probability)

	// A batch sharing one evidence set: the server answers every query
	// from one model snapshot and prices the shared evidence once.
	smoker := []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	batch := struct {
		Queries []pka.Query `json:"queries"`
	}{[]pka.Query{
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "No"}}, Given: smoker},
		{Kind: pka.QueryMostLikely, Attr: "FAMILY HISTORY", Given: smoker},
		{Kind: pka.QueryMPE, Given: smoker},
	}}
	var results struct {
		Results []pka.QueryResult `json:"results"`
	}
	decode(postJSON(base+"/v1/query/batch", batch), &results)
	for i, r := range results.Results {
		switch r.Kind {
		case pka.QueryConditional:
			fmt.Printf("batch[%d] conditional  = %.3f\n", i, r.Probability)
		case pka.QueryMostLikely:
			fmt.Printf("batch[%d] most likely  = %s (%.3f)\n", i, r.Value, r.Probability)
		case pka.QueryMPE:
			fmt.Printf("batch[%d] explanation  = %v (p=%.3f)\n", i, r.Assignments, r.Probability)
		}
	}

	// The schema endpoint tells clients what they may ask about.
	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		log.Fatal(err)
	}
	var schema struct {
		Attributes []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"attributes"`
	}
	decode(resp, &schema)
	fmt.Println("\nserved schema:")
	for _, a := range schema.Attributes {
		fmt.Printf("  %s: %v\n", a.Name, a.Values)
	}
}

func postJSON(url string, v any) *http.Response {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	return resp
}

func decode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
