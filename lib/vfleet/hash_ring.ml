(* ring points sorted by hash; binary search finds the first point
   clockwise of a key's hash *)
type t = { n_shards : int; points : (string * int) array  (* (hash, shard) *) }

let hash_of s = Digest.to_hex (Digest.string s)

(* ring points per shard *)
let vnodes = 64

let make ~shards () =
  if shards < 1 then invalid_arg "Hash_ring.make: shards must be >= 1";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash_of (Printf.sprintf "shard-%d#%d" shard v), shard))
  in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) points;
  { n_shards = shards; points }

let shards t = t.n_shards

(* index of the first point with hash >= h, wrapping to 0 *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst t.points.(mid)) h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then 0 else !lo

let owner t key = snd t.points.(successor t (hash_of key))

let preference t key =
  let n = Array.length t.points in
  let start = successor t (hash_of key) in
  let seen = Array.make t.n_shards false in
  let order = ref [] in
  let found = ref 0 in
  let i = ref 0 in
  while !found < t.n_shards && !i < n do
    let shard = snd t.points.((start + !i) mod n) in
    if not seen.(shard) then begin
      seen.(shard) <- true;
      order := shard :: !order;
      incr found
    end;
    incr i
  done;
  List.rev !order
