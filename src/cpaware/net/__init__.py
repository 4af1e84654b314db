"""From-scratch multitask network: layers, losses, optimizer, checkpoints."""
