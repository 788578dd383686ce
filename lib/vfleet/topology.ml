module Wire = Vserve.Wire

type t = { run_dir : string; shards : int }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let make ~run_dir ~shards =
  mkdir_p run_dir;
  { run_dir; shards }

let worker_addr t i = `Unix (Filename.concat t.run_dir (Printf.sprintf "shard-%d.sock" i))
let router_addr t = `Unix (Filename.concat t.run_dir "router.sock")
let state_file t = Filename.concat t.run_dir "fleet-state.json"

type shard_status = {
  id : int;
  pid : int;
  state : string;
  restarts : int;
  breaker_trips : int;
  failures : int;
}

let shard_to_wire ?(stats = Wire.Null) s =
  Wire.Obj
    [
      ("id", Wire.Int s.id);
      ("pid", Wire.Int s.pid);
      ("state", Wire.String s.state);
      ("restarts", Wire.Int s.restarts);
      ("breaker_trips", Wire.Int s.breaker_trips);
      ("failures", Wire.Int s.failures);
      ("stats", stats);
    ]

let state_to_wire ~pid ~router_pid shards =
  Wire.Obj
    [
      ("pid", Wire.Int pid);
      ("router_pid", Wire.Int router_pid);
      ("shards", Wire.List (List.map (fun s -> shard_to_wire s) shards));
    ]

let write_state t doc =
  let path = state_file t in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Wire.to_string doc));
  Sys.rename tmp path

let read_state t =
  let path = state_file t in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let shard_of_wire v =
  let int name = Option.value ~default:0 (Option.bind (Wire.member name v) Wire.to_int) in
  match Option.bind (Wire.member "id" v) Wire.to_int with
  | None -> None
  | Some id ->
    Some
      {
        id;
        pid = int "pid";
        state = Option.value ~default:"" (Option.bind (Wire.member "state" v) Wire.to_str);
        restarts = int "restarts";
        breaker_trips = int "breaker_trips";
        failures = int "failures";
      }

let read_shards t =
  let arr = Array.make t.shards None in
  (match Option.map Wire.of_string (read_state t) with
  | Some (Ok v) ->
    Option.value ~default:[] (Option.bind (Wire.member "shards" v) Wire.to_list)
    |> List.iter (fun item ->
           match shard_of_wire item with
           | Some s when s.id >= 0 && s.id < t.shards -> arr.(s.id) <- Some s
           | _ -> ())
  | Some (Error _) | None -> ());
  arr
