type t = Buffer.t

let create () = Buffer.create 256

(* a text longer than this leaves the buffer at its initial size *)
let keep = 1 lsl 20

let use buf f k =
  Buffer.clear buf;
  f buf;
  let result = k buf in
  if Buffer.length buf > keep then Buffer.reset buf;
  result

let render buf f = use buf f Buffer.contents
