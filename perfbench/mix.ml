(* The workloads' seeded inputs: each a pure function of --seed. *)

(* fuzz-corpus: a fixed generated corpus, analyzed in an order drawn from
   the seed.  The generator's own seed is fixed because a generated corpus
   can hold a system the pipeline misjudges, which would make the failure
   count depend on the seed instead of the commit. *)
let corpus ~corpus_seed ~count ~seed =
  Vfuzz.Sprng.shuffle (Vfuzz.Sprng.make seed) (Vfuzz.Generate.corpus ~seed:corpus_seed ~count ())

(* serve-mix: the request sequence.  Keys are drawn uniformly.  Each
   request names one of its key's config files; a share of them are
   check-update requests moving from that file to the key's next one, so
   every distinct request has a reference answer computed before the timed
   window. *)

type kind = Current of int | Update of int * int
type req = { key : int; kind : kind }

let sequence ~seed ~n ~configs ~update_share =
  let g = Vfuzz.Sprng.make seed in
  let nkeys = Array.length configs in
  Array.init n (fun _ ->
      let key = Vfuzz.Sprng.int g nkeys in
      let ncfg = configs.(key) in
      let c = Vfuzz.Sprng.int g ncfg in
      if Vfuzz.Sprng.chance g update_share then { key; kind = Update (c, (c + 1) mod ncfg) }
      else { key; kind = Current c })

(* Open loop at a fixed offered rate: request [i] is due [i / rate] seconds
   after the start, whether or not earlier answers have arrived. *)
let due ~start ~rate i = start +. (float_of_int i /. rate)
