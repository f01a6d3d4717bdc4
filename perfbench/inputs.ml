(* Seeded workload inputs.  The benchmark derives every input from the
   workload seed; the program under test only ever sees the generated
   systems and request lines. *)

module Corpus = Nocplan_corpus.Corpus

(* The seed claims are tuned on, and one kept back to re-check them. *)
let default_seed = 7
let held_out_seed = 1009

let corpus_seed seed = Int64.of_int seed

(* ------------------------------------------------------------------ *)
(* verify-corpus systems                                               *)

(* Systems generated per seed, and how many of them are timed. *)
let corpus_count = 1000
let verify_slice = 100

(* A system's size: modules times mesh nodes times processors (plus
   one).  It predicts the testplan's cost per system closely. *)
let size (item : Corpus.item) =
  Nocplan_itc02.Soc.module_count item.Corpus.soc
  * item.Corpus.width * item.Corpus.height
  * (1 + item.Corpus.leons + item.Corpus.plasmas)

(* The timed systems: [verify_slice] spread evenly over the corpus
   ordered by size, the middle one of each equal share.  The slice has
   the corpus's mix of small and large systems, so its cost moves with
   the seed about as little as the whole corpus's would. *)
let stratified items =
  let sorted =
    Array.of_list (List.stable_sort (fun a b -> compare (size a) (size b)) items)
  in
  let n = Array.length sorted in
  Array.init verify_slice (fun k -> sorted.((((2 * k) + 1) * n) / (2 * verify_slice)))

let corpus_digest slice = Corpus.digest (Array.to_list slice)

(* ------------------------------------------------------------------ *)
(* Request lines                                                       *)

(* A request body is a JSON object without its "id" field; the line
   sent for request [i] prefixes the id, so equal bodies ask the same
   question and share one reference answer. *)
let line ~id body = Printf.sprintf "{\"id\": %d, %s" id body

let pick rng a = a.(Random.State.int rng (Array.length a))

let systems = Array.of_list (List.map fst Nocplan_core.Experiments.builders)

(* The serve-shared mix is made of rounds: each round holds the same
   168 requests in a seeded order.  Per builtin system a round has 16
   plans, 4 race validations, 2 sweeps and 4 anneals; the two d695
   systems also get the round's 6 replans and 6 preempts, which on the
   larger systems would cost tens of milliseconds each and make the
   latency tail a lottery over where they land.  So every op appears in
   fixed proportions whatever the seed, the small parameter ranges make
   requests repeat (the table, shared-evaluation and warm-start caches
   and in-flight coalescing all see traffic), and the seed decides only
   the order. *)
let faults =
  [
    (0, "\"failed_links\": [\"1,1>1,2\"]");
    (50000, "\"failed_links\": [\"2,1>2,2\"]");
    (0, "\"failed_routers\": [\"2,2\"]");
  ]

let shared_round =
  List.concat_map
    (fun system ->
      let body fmt = Printf.sprintf ("\"system\": \"%s\", " ^^ fmt ^^ "}") system in
      List.map (body "\"op\": \"plan\", \"reuse\": %d")
        [ 2; 4; 6; 2; 4; 6; 3; 5; 2; 4; 6; 2; 4; 6; 3; 5 ]
      @ List.map
          (body "\"op\": \"validate\", \"reuse\": %d, \"backend\": \"race\"")
          [ 4; 6; 4; 6 ]
      @ [ body "\"op\": \"sweep\""; body "\"op\": \"sweep\", \"power_pct\": 25" ]
      @ List.map
          (body "\"op\": \"anneal\", \"reuse\": 4, \"iterations\": 20, \"seed\": %d")
          [ 1; 2; 3; 1 ]
      @
      if String.sub system 0 4 <> "d695" then []
      else
        List.map (fun (at, fault) -> body "\"op\": \"replan\", \"at\": %d, %s" at fault) faults
        @ List.map (body "\"op\": \"preempt\", \"max_sessions\": %d") [ 2; 3; 2 ])
    (Array.to_list systems)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let shared_bodies ~seed ~rounds =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  Array.concat
    (List.init rounds (fun _ -> shuffle rng (Array.of_list shared_round)))

(* One inline corpus SoC per body: plan or validate, so every request
   pays request parsing, the ITC'02 parser, system assembly and a
   fresh access table, and no cache can serve it. *)
let cold_body rng (item : Corpus.item) =
  Printf.sprintf
    "\"op\": \"%s\", \"soc\": \"%s\", \"width\": %d, \"height\": %d, \
     \"leons\": %d, \"plasmas\": %d}"
    (pick rng [| "plan"; "validate" |])
    (Nocplan_serve.Json.escape (Nocplan_itc02.Printer.to_string item.Corpus.soc))
    item.Corpus.width item.Corpus.height item.Corpus.leons item.Corpus.plasmas

(* Distinct SoCs per run; the mix cycles through them.  Far more than
   the server's table-cache capacity, so a repeat never hits. *)
let cold_pool = 600

let cold_bodies ~seed ~count =
  let rng = Random.State.make [| seed; 0xc01d |] in
  Array.of_list
    (List.map (cold_body rng) (Corpus.generate ~seed:(corpus_seed seed) ~count))

let lines_digest bodies =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list bodies)))

(* ------------------------------------------------------------------ *)
(* Recorded identities                                                 *)

(* [(workload, seed, digest)]: the corpus digest of the timed systems
   for verify-corpus, and the digest of the first [lines_recorded]
   request bodies for the serve workloads. *)
let lines_recorded = 500

let recorded =
  [
    ("verify-corpus", default_seed, "50dcd9fd6da01f1b642431388341b329");
    ("verify-corpus", held_out_seed, "1b417f0eb6539ac5e645ce2b2280f63d");
    ("serve-shared", default_seed, "fa8acfb776f9c9552cc87a9e35b2506d");
    ("serve-shared", held_out_seed, "8e23e93a08ea97c17d23dbc998af1423");
    ("serve-cold", default_seed, "f2a67b47ae7e2000cd11fe0506aab8c8");
    ("serve-cold", held_out_seed, "4477687646f25fa46c406a48097f505d");
  ]

let recorded_digest ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if w = workload && s = seed then Some d else None)
    recorded

let shared_digest ~seed =
  lines_digest (Array.sub (shared_bodies ~seed ~rounds:3) 0 lines_recorded)

let cold_digest ~seed = lines_digest (cold_bodies ~seed ~count:lines_recorded)

let verify_digest ~seed =
  corpus_digest (stratified (Corpus.generate ~seed:(corpus_seed seed) ~count:corpus_count))
