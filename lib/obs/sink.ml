type 'a t =
  | Buffer of { mutable rev : 'a list }
  | Stream of { to_json : 'a -> string; write : string -> unit }

let buffer () = Buffer { rev = [] }
let jsonl_writer ~to_json write = Stream { to_json; write }

let emit t x =
  match t with Buffer b -> b.rev <- x :: b.rev | Stream s -> s.write (s.to_json x)

let contents = function Buffer b -> List.rev b.rev | Stream _ -> []
