type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_string buf s =
  Buffer.add_char buf '"';
  (* most strings need no escape: one scan, then one blit *)
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* shortest-exact float, forced to re-parse as a float: %.17g always
   round-trips an OCaml float, but prints integral values bare ("3"), which
   would come back as [Int] *)
let float_string f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let exact s = float_of_string s = f in
    let s15 = Printf.sprintf "%.15g" f in
    let s16 = Printf.sprintf "%.16g" f in
    if exact s15 then s15 else if exact s16 then s16 else s

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_string f)
    else Buffer.add_string buf "null"
  | String s -> escape_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        print buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        print buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

(* serving is single-domain, so one buffer renders every line *)
let line_buf = Vsmt.Render_buf.create ()

let with_line v k =
  Vsmt.Render_buf.use line_buf
    (fun buf ->
      print buf v;
      Buffer.add_char buf '\n')
    k

let to_line v = with_line v Buffer.contents

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg c.pos))
let at_end c = c.pos >= String.length c.text

(* The byte under the cursor, compared in place rather than boxed in an
   option; past the end it reads '\000', which no caller expects, and the
   callers that must tell the end apart test [at_end]. *)
let peek c = if at_end c then '\000' else String.unsafe_get c.text c.pos
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    advance c
  done

let expect c ch = if peek c = ch then advance c else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    if at_end c then fail c "truncated \\u escape";
    v := (!v * 16) + digit (peek c);
    advance c
  done;
  !v

(* the end of the run of plain bytes at [i]: the next quote, backslash or
   end of input *)
let rec plain_run text i =
  if i < String.length text && text.[i] <> '"' && text.[i] <> '\\' then plain_run text (i + 1)
  else i

(* A string without escapes, the common case, is one [String.sub]; with
   escapes, each plain run is copied in one piece. *)
let parse_string c =
  expect c '"';
  let text = c.text in
  let stop = plain_run text c.pos in
  if stop < String.length text && text.[stop] = '"' then begin
    let s = String.sub text c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    s
  end
  else begin
    let buf = Buffer.create (stop - c.pos + 16) in
    let rec loop () =
      let stop = plain_run text c.pos in
      Buffer.add_substring buf text c.pos (stop - c.pos);
      c.pos <- stop;
      if at_end c then fail c "unterminated string"
      else if peek c = '"' then advance c
      else begin
        advance c;
        (match peek c with
        | '"' -> Buffer.add_char buf '"'; advance c
        | '\\' -> Buffer.add_char buf '\\'; advance c
        | '/' -> Buffer.add_char buf '/'; advance c
        | 'n' -> Buffer.add_char buf '\n'; advance c
        | 'r' -> Buffer.add_char buf '\r'; advance c
        | 't' -> Buffer.add_char buf '\t'; advance c
        | 'b' -> Buffer.add_char buf '\b'; advance c
        | 'f' -> Buffer.add_char buf '\012'; advance c
        | 'u' ->
          advance c;
          let hi = hex4 c in
          if hi >= 0xd800 && hi <= 0xdbff then begin
            (* surrogate pair *)
            expect c '\\';
            expect c 'u';
            let lo = hex4 c in
            if lo < 0xdc00 || lo > 0xdfff then fail c "unpaired surrogate"
            else add_utf8 buf (0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else add_utf8 buf hi
        | _ -> fail c "bad escape");
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  end

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () =
    match peek c with
    | '0' .. '9' | '-' | '+' -> advance c; true
    | '.' | 'e' | 'E' ->
      is_float := true;
      advance c;
      true
    | _ -> false
  in
  while consume () do () done;
  let s = String.sub c.text start (c.pos - start) in
  if s = "" then fail c "expected a number"
  else if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "malformed number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ] in
      skip_ws c;
      while peek c = ',' do
        advance c;
        items := parse_value c :: !items;
        skip_ws c
      done;
      expect c ']';
      List (List.rev !items)
    end
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws c;
      while peek c = ',' do
        advance c;
        fields := field () :: !fields;
        skip_ws c
      done;
      expect c '}';
      Obj (List.rev !fields)
    end
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

let of_string s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing bytes after value at byte %d" c.pos)
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List vs -> Some vs | _ -> None
