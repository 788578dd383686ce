type t = {
  seed : int;
  solver_unknown_p : float;
  signal_drop_p : float;
  signal_delay_p : float;
  signal_delay_us : float;
  checkpoint_truncate_p : float;
  model_corrupt_p : float;
  rng : Random.State.t;
}

let make ?(solver_unknown = 0.) ?(signal_drop = 0.) ?(signal_delay = 0.)
    ?(signal_delay_us = 500.) ?(checkpoint_truncate = 0.) ?(model_corrupt = 0.) ~seed () =
  {
    seed;
    solver_unknown_p = solver_unknown;
    signal_drop_p = signal_drop;
    signal_delay_p = signal_delay;
    signal_delay_us;
    checkpoint_truncate_p = checkpoint_truncate;
    model_corrupt_p = model_corrupt;
    rng = Random.State.make [| seed; 0xc4a05 |];
  }

let default_with_seed seed =
  make ~solver_unknown:0.05 ~signal_drop:0.05 ~signal_delay:0.05 ~checkpoint_truncate:0.2
    ~model_corrupt:0.05 ~seed ()

let of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ seed ] -> begin
    match int_of_string_opt seed with
    | Some seed -> Ok (default_with_seed seed)
    | None -> Error (Printf.sprintf "invalid chaos seed %S" s)
  end
  | [ seed; p ] -> begin
    match int_of_string_opt seed, float_of_string_opt p with
    | Some seed, Some p when p >= 0. && p <= 1. ->
      Ok
        (make ~solver_unknown:p ~signal_drop:p ~signal_delay:p ~checkpoint_truncate:p
           ~model_corrupt:p ~seed ())
    | _ -> Error (Printf.sprintf "invalid chaos spec %S (expected SEED or SEED:PROB)" s)
  end
  | _ -> Error (Printf.sprintf "invalid chaos spec %S (expected SEED or SEED:PROB)" s)

let flip t p = p > 0. && Random.State.float t.rng 1.0 < p

let truncate_file t path =
  if not (flip t t.checkpoint_truncate_p) then false
  else begin
    (try
       let len = (Unix.stat path).Unix.st_size in
       let keep = if len = 0 then 0 else Random.State.int t.rng len in
       Unix.truncate path keep
     with Unix.Unix_error _ | Sys_error _ -> ());
    true
  end

let corrupt_string t s =
  if String.length s = 0 || not (flip t t.model_corrupt_p) then s
  else begin
    let b = Bytes.of_string s in
    let i = Random.State.int t.rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Random.State.int t.rng 256));
    Bytes.to_string b
  end
