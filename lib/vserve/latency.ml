(* power-of-two microsecond buckets: bucket i counts latencies <= 2^i us;
   27 buckets reach ~67 s, the last bucket is the overflow *)
let buckets = 28

type t = {
  counts : int array;
  mutable observations : int;
  mutable sum_us : float;
  mutable max_us : float;
}

let create () = { counts = Array.make buckets 0; observations = 0; sum_us = 0.; max_us = 0. }

let bucket us =
  let rec go i = if i >= buckets - 1 || us <= float_of_int (1 lsl i) then i else go (i + 1) in
  go 0

let observe h ~us =
  let us = Float.max 0. us in
  let b = bucket us in
  h.counts.(b) <- h.counts.(b) + 1;
  h.observations <- h.observations + 1;
  h.sum_us <- h.sum_us +. us;
  h.max_us <- Float.max h.max_us us

let mean_us h = if h.observations = 0 then 0. else h.sum_us /. float_of_int h.observations

let percentile_us h q =
  if h.observations = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.round (q *. float_of_int h.observations)) in
    let rec go i seen =
      if i >= buckets then h.max_us
      else
        let seen = seen + h.counts.(i) in
        if float_of_int seen >= rank then
          if i = buckets - 1 then h.max_us else float_of_int (1 lsl i)
        else go (i + 1) seen
    in
    go 0 0
  end

let merge ~into h =
  Array.iteri (fun i v -> into.counts.(i) <- into.counts.(i) + v) h.counts;
  into.observations <- into.observations + h.observations;
  into.sum_us <- into.sum_us +. h.sum_us;
  into.max_us <- Float.max into.max_us h.max_us

let to_wire h =
  Wire.Obj
    [
      ("observations", Wire.Int h.observations);
      ("mean_us", Wire.Float (mean_us h));
      ("max_us", Wire.Float h.max_us);
      ("p50_us", Wire.Float (percentile_us h 0.50));
      ("p90_us", Wire.Float (percentile_us h 0.90));
      ("p99_us", Wire.Float (percentile_us h 0.99));
      ("bucket_counts", Wire.List (List.map (fun n -> Wire.Int n) (Array.to_list h.counts)));
    ]

(* the exact sum does not cross the wire; it is rebuilt from the mean *)
let of_wire v =
  let field name conv = Option.bind (Wire.member name v) conv in
  let counts = Option.map (List.filter_map Wire.to_int) (field "bucket_counts" Wire.to_list) in
  match (counts, field "mean_us" Wire.to_float, field "max_us" Wire.to_float) with
  | Some counts, Some mean_us, Some max_us when List.length counts = buckets ->
    let observations = List.fold_left ( + ) 0 counts in
    Some
      {
        counts = Array.of_list counts;
        observations;
        sum_us = mean_us *. float_of_int observations;
        max_us;
      }
  | _ -> None
