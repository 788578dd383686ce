type kind = Call of { eip : int; ret_addr : int } | Ret of { ret_addr : int }

type record = { kind : kind; fname : string; ts : float; thread : int; cid : int }

let is_call r = match r.kind with Call _ -> true | Ret _ -> false
