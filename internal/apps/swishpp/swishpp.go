// Package swishpp reproduces the swish++ benchmark (Sec. 4.4 of the
// paper): a search engine that indexes documents and returns ranked
// results for queries. The single dynamic knob is max-results (-m), the
// maximum number of returned search results, with the paper's values
// {5, 10, 25, 50, 75, 100} and default 100. The knob trades recall (and
// result-formatting work) for speed: the top results are preserved in
// order, but fewer total results are returned.
//
// The paper indexes Project Gutenberg books and generates queries with
// the Middleton/Baeza-Yates methodology: build a dictionary of all words
// present excluding stop words, and select words at random following a
// power-law distribution. Here the corpus itself is synthetic — documents
// drawn from a Zipf-distributed vocabulary — which preserves the
// word-frequency structure the index and the query methodology depend on,
// without shipping a book corpus. Documents are split into equal training
// and production sets as in Table 1.
package swishpp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Knob values from the paper.
var knobValues = []int64{5, 10, 25, 50, 75, 100}

// DefaultMaxResults is the baseline knob value.
const DefaultMaxResults = 100

// stopWords is the number of top-ranked vocabulary words treated as stop
// words (excluded from queries, as in the paper's methodology).
const stopWords = 50

// formatCost is the work, in ops, of formatting one returned result
// (fetching document metadata and building the result line). Together
// with the postings-scan cost this constant shapes the knob's speedup;
// it is calibrated toward the paper's ~1.5× over the full knob range
// (Sec. 5.2). The realized span is 1.94× at medium scale and 1.85× at
// small (the Fig. 5d series of `go run ./cmd/experiments -exp fig5`).
const formatCost = 20

// Options sizes the benchmark. Zero fields take the noted defaults.
type Options struct {
	// Docs is the number of documents per input set (default 2000 — the
	// paper's corpus size per set).
	Docs int
	// Vocabulary is the synthetic vocabulary size (default 8000).
	Vocabulary int
	// Queries is the number of queries per input set (default 40).
	Queries int
	// QueriesPerStream groups queries into server request batches
	// (default 20).
	QueriesPerStream int
	// Seed randomizes corpus and query generation (default 1).
	Seed int64
}

func (o *Options) fill() {
	if o.Docs == 0 {
		o.Docs = 2000
	}
	if o.Vocabulary == 0 {
		o.Vocabulary = 8000
	}
	if o.Queries == 0 {
		o.Queries = 40
	}
	if o.QueriesPerStream == 0 {
		o.QueriesPerStream = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// newRNG returns the deterministic generator used for corpus and query
// synthesis.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// posting is one document entry in a term's postings list.
type posting struct {
	doc int32
	tf  int32
}

// Index is an inverted index over one document set.
type Index struct {
	postings map[int][]posting // word id -> postings
	df       map[int]int       // word id -> document frequency
	titles   []string
	numDocs  int
}

// buildIndex generates docs documents from a Zipf vocabulary and indexes
// them.
func buildIndex(docs, vocab int, rng *rand.Rand, prefix string) *Index {
	ix := &Index{
		postings: make(map[int][]posting),
		df:       make(map[int]int),
		numDocs:  docs,
	}
	zipf := rand.NewZipf(rng, 1.07, 1, uint64(vocab-1))
	counts := make(map[int]int)
	for d := 0; d < docs; d++ {
		ix.titles = append(ix.titles, fmt.Sprintf("%s-book-%05d", prefix, d))
		length := 100 + rng.Intn(300)
		for k := range counts {
			delete(counts, k)
		}
		for w := 0; w < length; w++ {
			counts[int(zipf.Uint64())]++
		}
		for word, tf := range counts {
			ix.postings[word] = append(ix.postings[word], posting{doc: int32(d), tf: int32(tf)})
			ix.df[word]++
		}
	}
	// Deterministic postings order (map iteration above randomizes
	// append order only across words, but each list is built in doc
	// order already; sort defensively).
	for w := range ix.postings {
		list := ix.postings[w]
		sort.Slice(list, func(i, j int) bool { return list[i].doc < list[j].doc })
	}
	return ix
}

// Query is a conjunction-free (OR-scored) bag of query terms.
type Query struct {
	Name  string
	Terms []int
}

// generateQueries samples queries per the Middleton/Baeza-Yates
// methodology: words drawn from the dictionary following a power law,
// excluding stop words (the top-ranked words). Terms with very short or
// degenerate postings lists are resampled, and whole queries are
// resampled until their candidate set comfortably exceeds the largest
// knob value — without that, the max-results knob would be a no-op on
// most queries (real search workloads over book corpora behave this
// way: common query words match far more than 100 documents).
func generateQueries(ix *Index, vocab, n int, rng *rand.Rand, prefix string) []Query {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	minDF := ix.numDocs / 12
	sample := func() int {
		for {
			w := int(zipf.Uint64())
			if w < stopWords {
				continue // stop word
			}
			df := ix.df[w]
			if df < minDF || df > ix.numDocs/2 {
				continue
			}
			return w
		}
	}
	candidates := func(terms []int) int {
		seen := make(map[int32]bool)
		for _, t := range terms {
			for _, p := range ix.postings[t] {
				seen[p.doc] = true
			}
		}
		return len(seen)
	}
	out := make([]Query, n)
	for i := range out {
		var terms []int
		for {
			terms = []int{sample()}
			want := 2 + rng.Intn(2)
			for len(terms) < want {
				t := sample()
				dup := false
				for _, x := range terms {
					dup = dup || x == t
				}
				if !dup {
					terms = append(terms, t)
				}
			}
			if candidates(terms) >= DefaultMaxResults+20 {
				break
			}
		}
		out[i] = Query{Name: fmt.Sprintf("%s-q%03d", prefix, i), Terms: terms}
	}
	return out
}

// SearchResult is the ranked result list for one query, including the
// formatted result lines a server would return.
type SearchResult struct {
	Docs  []int32
	Lines []string
}

// Search runs one query against the index, returning at most maxResults
// ranked results and the work units consumed. Ranking is tf-idf with
// deterministic tie-breaking (higher score first, then lower doc id).
func (ix *Index) Search(q Query, maxResults int) (SearchResult, float64) {
	if maxResults < 1 {
		maxResults = 1
	}
	var ops float64 = 10 // query parsing
	scores := make(map[int32]float64)
	candidates := make([]int32, 0, 256)
	for _, t := range q.Terms {
		list := ix.postings[t]
		if len(list) == 0 {
			continue
		}
		idf := logIDF(ix.numDocs, len(list))
		for _, p := range list {
			if _, seen := scores[p.doc]; !seen {
				candidates = append(candidates, p.doc)
			}
			scores[p.doc] += float64(p.tf) * idf
			ops += 3
		}
	}
	// Top-K selection over the candidate set via a bounded min-heap.
	// Candidates are offered in accumulation order (deterministic), so
	// both the result and the measured work are reproducible.
	h := newDocHeap(maxResults)
	for _, doc := range candidates {
		ops += h.push(doc, scores[doc])
	}
	ranked := h.sorted()
	ops += float64(len(ranked)) * math.Log2(float64(maxResults)+2)
	res := SearchResult{Docs: make([]int32, len(ranked)), Lines: make([]string, len(ranked))}
	for i, ds := range ranked {
		res.Docs[i] = ds.doc
		// Result formatting: rank, title, score — the per-result work
		// the knob eliminates when it truncates the list.
		res.Lines[i] = fmt.Sprintf("%3d. %s score=%.4f", i+1, ix.titles[ds.doc], ds.score)
		ops += formatCost
	}
	return res, ops
}

func logIDF(n, df int) float64 {
	return math.Log2(float64(n)/float64(df)) + 1
}
