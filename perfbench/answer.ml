(* Reading the fleet's answer lines without decoding them: the id an
   answer carries, and the part of a report that is the same whenever the
   fleet gives the same answer. *)

let id_prefix = "{\"id\":"
let lp = String.length id_prefix

(* The index just past the digits of the {"id":N prefix the protocol
   writes first. *)
let id_end line =
  let n = String.length line in
  if n > lp && String.starts_with ~prefix:id_prefix line then begin
    let j = ref lp in
    while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
    if !j > lp then Some !j else None
  end
  else None

(* The response id, read from the prefix; a full decode is the fallback. *)
let id_of_line line =
  match id_end line with
  | Some j -> int_of_string_opt (String.sub line lp (j - lp))
  | None -> (
    match Vserve.Protocol.decode_response line with Ok (id, _) -> id | Error _ -> None)

let timing = ",\"checked_in_s\":"

(* A report line reads {"id":N,"ok":{"findings":...,"checked_in_s":F}}.
   Between the id and the timing it is the same whenever the fleet gives
   the same answer: that body, once the two cut-off parts are checked to
   be an id and a number.  [None] for any other line. *)
let report_body line =
  let n = String.length line in
  let lt = String.length timing in
  let rec last j = if j < 0 then None else if String.sub line j lt = timing then Some j else last (j - 1) in
  match (id_end line, last (n - lt - 2)) with
  | Some i, Some j
    when i < n && line.[i] = ',' && j > i
         && String.ends_with ~suffix:"}}" line
         && Option.is_some (float_of_string_opt (String.sub line (j + lt) (n - 2 - j - lt))) ->
    Some (String.sub line i (j - i))
  | _ -> None
