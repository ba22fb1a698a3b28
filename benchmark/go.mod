module spampsm/benchmark

go 1.24

require spampsm v0.0.0

replace spampsm => ../
